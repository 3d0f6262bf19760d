"""Stacked-network multi-layer perceptron training.

The leave-one-out evaluation trains one :class:`repro.ml.mlp.MLPRegressor`
per (machine split, application of interest).  All of those networks share
the number of features (training benchmarks), the hyper-parameters and the
seed; only the number of samples (predictive machines) differs between
splits.  :class:`BatchedMLPRegressor` exploits that: it stacks the weights
of N independent networks into ``(N, features, hidden)`` tensors and
replaces the per-sample scalar updates with batched matmuls over the
network axis, so all N networks advance through SGD in one lockstep pass.
Networks with fewer samples finish earlier and drop out of the stack.

Numerical equivalence
---------------------
The batched pass reproduces the sequential implementation's arithmetic:

* each distinct sample count draws its initial weights and per-epoch
  shuffle orders from its own ``default_rng(seed)`` stream — exactly what a
  sequential fit on that many samples would draw;
* min-max scaling uses each network's own samples only; and
* the forward/backward contractions use ``np.matmul`` on stacked operands,
  which performs the same per-network reductions as the sequential ``@``,
  whatever the stack width.

So a network's trained weights do not depend on which other networks
share its stack (``tests/test_batched_engine.py`` pins this with a
property test), and agree with :class:`~repro.ml.mlp.MLPRegressor` to
``rtol=1e-10`` (in practice to the last few ulps even after 500 epochs)
on the NumPy reference backend; the compiled backend agrees with that
reference within :data:`repro.core.backends.COMPILED_RTOL`.

Array backends
--------------
The SGD inner loop is a backend kernel
(:meth:`repro.core.backends.ArrayBackend.mlp_sgd`).  All RNG draws happen
here, outside the kernel, so the random stream is backend-independent.
"""

from __future__ import annotations

import numpy as np

from repro.ml.mlp import MLPRegressor, _sigmoid

__all__ = ["BatchedMLPRegressor"]


class BatchedMLPRegressor:
    """Train N independent single-hidden-layer MLPs as one stacked tensor pass.

    All networks share the hyper-parameters and seed below (the batched
    cross-validation engine trains one network per split and application of
    interest, all configured identically); only the training data — and
    with it the sample count — differs per network.
    Parameters match :class:`repro.ml.mlp.MLPRegressor`, plus ``backend`` —
    an :class:`~repro.core.backends.ArrayBackend` name or instance for the
    SGD kernel (``None`` resolves via ``REPRO_BACKEND``, default the
    compiled kernel).
    """

    def __init__(
        self,
        hidden_units: int | None = None,
        learning_rate: float = 0.3,
        momentum: float = 0.2,
        epochs: int = 500,
        normalize: bool = True,
        seed: int = 0,
        gradient_clip: float = MLPRegressor.GRADIENT_CLIP,
        backend: "str | object | None" = None,
    ) -> None:
        if hidden_units is not None and hidden_units < 1:
            raise ValueError("hidden_units must be >= 1")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if gradient_clip <= 0:
            raise ValueError("gradient_clip must be positive")
        self.hidden_units = hidden_units
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.epochs = int(epochs)
        self.normalize = bool(normalize)
        self.seed = int(seed)
        self.gradient_clip = float(gradient_clip)
        self.backend = backend

        self._w_hidden: np.ndarray | None = None  # (N, F, H)
        self._b_hidden: np.ndarray | None = None  # (N, H)
        self._w_output: np.ndarray | None = None  # (N, H)
        self._b_output: np.ndarray | None = None  # (N,)
        self._x_min: np.ndarray | None = None
        self._x_span: np.ndarray | None = None
        self._y_min: np.ndarray | None = None
        self._y_span: np.ndarray | None = None

    # ------------------------------------------------------------------ fit
    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        sample_counts: np.ndarray | None = None,
    ) -> "BatchedMLPRegressor":
        """Train all networks on ``(N, samples, features)`` / ``(N, samples)``.

        Network ``n`` trains on its first ``sample_counts[n]`` samples
        (default: all of them); the rest of its rows are padding and are
        never read.  Scaling, initial weights and shuffle orders of each
        network are exactly those of a sequential fit on its own samples.
        """
        x = np.asarray(features, dtype=float)
        y = np.asarray(targets, dtype=float)
        if x.ndim != 3:
            raise ValueError("features must be a 3-D array (networks, samples, features)")
        if y.ndim != 2 or y.shape != x.shape[:2]:
            raise ValueError("targets must be 2-D (networks, samples) matching the features")
        n_networks, max_samples, n_features = x.shape
        if n_networks < 1:
            raise ValueError("need at least one network")
        if sample_counts is None:
            counts = np.full(n_networks, max_samples, dtype=np.intp)
        else:
            counts = np.asarray(sample_counts, dtype=np.intp)
            if counts.shape != (n_networks,) or counts.max() > max_samples:
                raise ValueError("sample_counts must give one count <= samples per network")
        if counts.min() < 2:
            raise ValueError("need at least two training samples")

        n_hidden = self.hidden_units or max(1, (n_features + 1) // 2)

        # The kernel wants the stack ordered by sample count, descending;
        # networks sharing a count then form one contiguous block.  The
        # reordered copies are the only copies of the training data, and
        # are scaled in place.
        order = np.argsort(-counts, kind="stable")
        sorted_counts = counts[order]
        x = x[order]
        y = y[order]
        w_hidden = np.empty((n_networks, n_features, n_hidden))
        b_hidden = np.empty((n_networks, n_hidden))
        w_output = np.empty((n_networks, n_hidden))
        b_output = np.empty(n_networks)
        distinct = np.unique(sorted_counts)[::-1]
        shuffle_orders = np.zeros(
            (self.epochs, max_samples, len(distinct)), dtype=np.min_scalar_type(max_samples)
        )
        x_min = np.empty((n_networks, 1, n_features))
        x_span = np.empty_like(x_min)
        y_min = np.empty((n_networks, 1))
        y_span = np.empty_like(y_min)

        stop = 0
        for column, n_samples in enumerate(distinct):
            start, stop = stop, stop + int(np.count_nonzero(sorted_counts == n_samples))
            xb, yb = x[start:stop, :n_samples], y[start:stop, :n_samples]
            if self.normalize:
                # Per-network [-1, 1] min-max scaling over the network's own
                # samples, replicating MinMaxScaler: zero-span features are
                # shifted but not scaled.
                for values, lo, span in (
                    (xb, x_min[start:stop], x_span[start:stop]),
                    (yb, y_min[start:stop], y_span[start:stop]),
                ):
                    lo[...] = values.min(axis=1, keepdims=True)
                    np.subtract(values.max(axis=1, keepdims=True), lo, out=span)
                    span[span == 0.0] = 1.0
                    values -= lo
                    values /= span
                    values *= 2.0
                    values += -1.0

            # One RNG stream per sample count, drawn exactly as a single
            # sequential fit on that many samples would draw it: initial
            # weights first, then one shuffle per epoch.  Precomputing the
            # orders keeps all randomness out of the backend kernel.
            rng = np.random.default_rng(self.seed)
            w_hidden[start:stop] = rng.uniform(-0.5, 0.5, size=(n_features, n_hidden))
            b_hidden[start:stop] = rng.uniform(-0.5, 0.5, size=n_hidden)
            w_output[start:stop] = rng.uniform(-0.5, 0.5, size=n_hidden)
            b_output[start:stop] = float(rng.uniform(-0.5, 0.5))
            indices = np.arange(n_samples)
            for epoch in range(self.epochs):
                rng.shuffle(indices)
                shuffle_orders[epoch, :n_samples, column] = indices

        from repro.core.backends import resolve_backend

        trained = resolve_backend(self.backend).mlp_sgd(
            x,
            y,
            w_hidden,
            b_hidden,
            w_output,
            b_output,
            shuffle_orders,
            self.learning_rate,
            self.momentum,
            self.gradient_clip,
            sorted_counts,
        )
        unsort = np.argsort(order)
        self._w_hidden, self._b_hidden, self._w_output, self._b_output = (
            weights[unsort] for weights in trained
        )
        if self.normalize:
            self._x_min, self._x_span, self._y_min, self._y_span = (
                stats[unsort] for stats in (x_min, x_span, y_min, y_span)
            )
        else:
            self._x_min = self._x_span = self._y_min = self._y_span = None
        return self

    # -------------------------------------------------------------- predict
    def predict(self, features: np.ndarray, networks: slice = slice(None)) -> np.ndarray:
        """Predict ``(n, rows)`` targets for ``(n, rows, features)`` inputs.

        *networks* selects the ``n`` stacked networks the input blocks
        belong to (default: all of them, in stack order).
        """
        if self._w_hidden is None:
            raise RuntimeError("predict called before fit")
        w_hidden = self._w_hidden[networks]
        x = np.ascontiguousarray(features, dtype=float)
        if x.ndim != 3 or x.shape[0] != w_hidden.shape[0]:
            raise ValueError(
                "features must be 3-D (networks, rows, features) with one block per network"
            )
        if self._x_min is not None:
            x = ((x - self._x_min[networks]) / self._x_span[networks]) * 2.0 + -1.0
        hidden = _sigmoid(np.matmul(x, w_hidden) + self._b_hidden[networks][:, None, :])
        outputs = (
            np.matmul(hidden, self._w_output[networks][:, :, None])[:, :, 0]
            + self._b_output[networks][:, None]
        )
        if self._y_min is not None:
            outputs = ((outputs + 1.0) / 2.0) * self._y_span[networks] + self._y_min[networks]
        return outputs

    @property
    def n_networks(self) -> int:
        """Number of stacked networks (resolved after fit)."""
        if self._w_hidden is None:
            raise RuntimeError("model has not been fitted")
        return int(self._w_hidden.shape[0])

    @property
    def n_hidden_units(self) -> int:
        """Number of hidden units actually used (resolved after fit)."""
        if self._w_hidden is None:
            raise RuntimeError("model has not been fitted")
        return int(self._w_hidden.shape[2])
