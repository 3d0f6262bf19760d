"""Pluggable array backends for the engine's dense kernels.

The three hottest loops of the engine are expressed here as *backend
kernels*, coarse-grained operations an :class:`ArrayBackend` implements end
to end: the stacked-network SGD inside
:class:`~repro.ml.batched_mlp.BatchedMLPRegressor` (``mlp_sgd``), the
rank-one leave-one-out downdating inside
:class:`~repro.core.linear_predictor.LinearTranspositionPredictor`
(``nnt_downdated_statistics``), and the leave-one-out k-NN fitness of every
genome of the lockstep GA inside :class:`~repro.baselines.ga_knn.
BatchedGAKNN` (``gaknn_fitness``).  Kernel granularity (rather than op-by-op
indirection) keeps the NumPy reference path free of per-call dispatch
overhead and gives alternative implementations enough work per call to
amortise their own.

Two backends ship.  :class:`NumpyBackend` is the reference, always
available.  Its MLP kernel is the lockstep ragged SGD pass described on
:meth:`ArrayBackend.mlp_sgd`; every network in the stack follows bit for
bit the trajectory it would follow if trained alone, which makes it the
oracle against the sequential :class:`~repro.ml.mlp.MLPRegressor` (the
equivalence suite pins this); its GA-kNN kernel is bit-identical to the
per-cell :class:`~repro.baselines.ga_knn.GAKNNBaseline` fitness whenever
there are two or more target machines.
:class:`CompiledBackend` runs the SGD loop and the GA-kNN fitness pass
compiled from ``_kernels.c`` with the local C compiler, built on first use
and cached under ``$XDG_CACHE_HOME/repro`` (or ``~/.cache/repro``).  Its
trained weights agree with the reference within :data:`COMPILED_RTOL`; its
GA-kNN fitness is bit-identical to it.  NNᵀ stays on NumPy in both.  A
backend that cannot be loaded (no compiler, failed build) makes
:func:`resolve_backend` warn once and fall back to NumPy.

Selection order for every kernel consumer: an explicit ``backend=``
argument (name or instance) wins, otherwise ``REPRO_BACKEND``, otherwise
``"compiled"``.  ``REPRO_BACKEND=numpy`` selects the reference.

Examples::

    >>> resolve_backend("numpy").name
    'numpy'
    >>> resolve_backend("numpy") is resolve_backend("numpy")   # cached singleton
    True
    >>> sorted(BACKENDS)
    ['compiled', 'numpy']
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import shutil
import stat
import tempfile
import warnings
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "ArrayBackend",
    "BACKENDS",
    "BACKEND_ENV_VAR",
    "COMPILED_RTOL",
    "CompiledBackend",
    "NumpyBackend",
    "available_backends",
    "resolve_backend",
]

#: Environment variable consulted when no backend is named explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Backend used when neither an argument nor the environment names one.
DEFAULT_BACKEND = "compiled"

#: Declared tolerance of :class:`CompiledBackend` against the NumPy
#: reference: relative difference of predictions and trained weights.
#: Measured drift on the fast-preset Table 2 stack is ~4e-11 on weights.
COMPILED_RTOL = 1e-9

#: Bytes of training samples the NumPy SGD kernel gathers in one go.  Small
#: enough to stay out of the allocator's retained heap when the service runs
#: the kernel on several executor threads.
_SGD_CHUNK_BYTES = 1 << 16


@runtime_checkable
class ArrayBackend(Protocol):
    """The kernel surface an array backend must provide.

    A backend owns three dense kernels.  Inputs and outputs are NumPy
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
        being the rank of ``c``; every visited order must lie in ``[0, c)``
        (``ValueError`` otherwise, before any training).  The RNG draws
        stay in the caller, so the stream is backend-independent.
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

    def gaknn_fitness(
        self,
        genomes: np.ndarray,
        pairwise_sq: np.ndarray,
        scores: np.ndarray,
        k: int,
    ) -> np.ndarray:
        """Leave-one-out k-NN error of every genome of every GA-kNN cell.

        *genomes* is ``(cells, pop, characteristics)`` weight vectors,
        *pairwise_sq* the ``(cells, characteristics, B, B)`` squared
        feature differences of each cell's B training benchmarks and
        *scores* their ``(cells, B, targets)`` target-machine scores.
        Returns ``(cells, pop)`` mean relative errors of predicting each
        benchmark from its ``min(k, B - 1)`` nearest other benchmarks.
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
        if (
            x_samples.shape != (n_networks, max_samples, n_features)
            or y_samples.shape != (n_networks, max_samples)
            or b_hidden.shape != (n_networks, n_hidden)
            or w_output.shape != (n_networks, n_hidden)
            or b_output.shape != (n_networks,)
        ):
            raise ValueError("training data and weights must match the stack's shapes")
        counts = np.asarray(sample_counts, dtype=np.intp)
        if counts.shape != (n_networks,) or np.any(np.diff(counts) > 0):
            raise ValueError("sample_counts must give one count per network, descending")
        if np.any((counts < 1) | (counts > max_samples)):
            raise ValueError("every sample count must lie in [1, shuffle_orders.shape[1]]")
        # Column g of the orders belongs to the g-th largest sample count.
        distinct_counts, order_of = np.unique(-counts, return_inverse=True)
        if len(distinct_counts) != n_orders:
            raise ValueError("shuffle_orders needs one order per distinct sample count")
        column_counts = -distinct_counts
        for column, count in enumerate(column_counts):
            visited = shuffle_orders[:, :count, column]
            if visited.size and (visited.min() < 0 or visited.max() >= count):
                raise ValueError("every shuffle order must lie in [0, its sample count)")
        return self._sgd_loop(
            x_samples, y_samples, w_hidden, b_hidden, w_output, b_output,
            shuffle_orders, float(learning_rate), float(momentum),
            float(gradient_clip), counts, order_of, column_counts,
        )

    def _sgd_loop(
        self,
        x_samples: np.ndarray,
        y_samples: np.ndarray,
        w_hidden: np.ndarray,
        b_hidden: np.ndarray,
        w_output: np.ndarray,
        b_output: np.ndarray,
        shuffle_orders: np.ndarray,
        lr: float,
        momentum: float,
        clip: float,
        counts: np.ndarray,
        order_of: np.ndarray,
        column_counts: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The lockstep SGD pass over validated arguments.

        ``order_of[n]`` is network ``n``'s column of ``shuffle_orders``
        and ``column_counts[g]`` the sample count of column ``g``.
        """
        n_networks, n_features, n_hidden = w_hidden.shape
        n_epochs, max_samples, _ = shuffle_orders.shape
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
            for column, count in enumerate(column_counts)
        ]

        vel_w_hidden = np.zeros_like(w_hidden)
        vel_b_hidden = np.zeros_like(b_hidden)
        vel_w_output = np.zeros_like(w_output)
        vel_b_output = np.zeros(n_networks)

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

    def gaknn_fitness(
        self,
        genomes: np.ndarray,
        pairwise_sq: np.ndarray,
        scores: np.ndarray,
        k: int,
    ) -> np.ndarray:
        n_cells, n_pop, n_genes = genomes.shape
        n_benchmarks = pairwise_sq.shape[-1]
        if (
            pairwise_sq.shape != (n_cells, n_genes, n_benchmarks, n_benchmarks)
            or scores.ndim != 3
            or scores.shape[:2] != (n_cells, n_benchmarks)
        ):
            raise ValueError("genomes, pairwise differences and scores must share cells and sizes")
        if n_benchmarks < 2 or k < 1:
            raise ValueError("GA-kNN fitness needs k >= 1 and at least two benchmarks")
        return self._gaknn_pass(genomes, pairwise_sq, scores, min(int(k), n_benchmarks - 1))

    def _gaknn_pass(
        self,
        genomes: np.ndarray,
        pairwise_sq: np.ndarray,
        scores: np.ndarray,
        k: int,
    ) -> np.ndarray:
        """The stacked fitness pass over validated arguments (``k < B``).

        One tensor pass evaluates every genome of every cell.  With two or
        more targets, each entry is bit-identical to
        :meth:`GAKNNBaseline._loo_fitness
        <repro.baselines.ga_knn.GAKNNBaseline._loo_fitness>` on the
        corresponding cell: the einsum contracts the characteristic axis
        sequentially (matching the per-characteristic accumulation), the
        neighbour selection reproduces the stable mergesort ordering (a
        k-smallest partition whose boundary-tie rows fall back to the full
        stable sort), and the k-neighbour score accumulation runs in the
        same index order as the sequential ``einsum("nk,nkm->nm")``
        contraction.
        """
        n_cells, n_pop, _ = genomes.shape
        n_benchmarks = pairwise_sq.shape[2]
        n_targets = scores.shape[2]
        n_rows = n_cells * n_pop * n_benchmarks

        distances = np.einsum(
            "cpf,cfij->cpij",
            genomes,
            pairwise_sq,
            out=np.empty((n_cells, n_pop, n_benchmarks, n_benchmarks)),
        )
        np.sqrt(distances, out=distances)
        diagonal = np.arange(n_benchmarks)
        # A benchmark is never its own neighbour candidate.
        distances[:, :, diagonal, diagonal] = np.inf

        # Stable k-smallest selection: partition out the k nearest, then
        # mergesort just those candidates.  Index-sorting the candidate set
        # first makes the mergesort tie-break (lowest index wins) match a
        # full stable sort.
        candidates = np.ascontiguousarray(
            np.argpartition(distances, k - 1, axis=-1)[..., :k]
        ).reshape(-1, k)
        candidates.sort(axis=-1)
        flat_dist = distances.reshape(n_rows * n_benchmarks)
        rows = np.arange(n_rows, dtype=np.intp)[:, None]
        row_base, sub_base = rows * n_benchmarks, rows * k
        candidates += row_base
        candidate_dist = flat_dist.take(candidates)
        candidates -= row_base
        suborder = np.argsort(candidate_dist, axis=-1, kind="mergesort")
        suborder += sub_base
        order = candidates.take(suborder)
        neighbour_dist = candidate_dist.take(suborder)
        # The candidate *set* is ambiguous exactly when distances tying the
        # k-th smallest straddle the partition boundary; those rare rows
        # fall back to the full stable sort.
        boundary = neighbour_dist[:, -1].reshape(n_cells, n_pop, n_benchmarks, 1)
        ambiguous = ((distances <= boundary).sum(axis=-1) > k).reshape(-1)
        if ambiguous.any():
            dist_rows = distances.reshape(-1, n_benchmarks)
            for row in np.nonzero(ambiguous)[0]:
                full = np.argsort(dist_rows[row], kind="mergesort")[:k]
                order[row] = full
                neighbour_dist[row] = dist_rows[row][full]
        order = order.reshape(n_cells, n_pop, n_benchmarks, k)
        neighbour_dist = neighbour_dist.reshape(n_cells, n_pop, n_benchmarks, k)

        # Zero distances (duplicate feature vectors) are rare: skip the
        # guard entirely when none exist — 1/x on the same values is the
        # same arithmetic the guarded path performs.
        if neighbour_dist.min() == 0.0:
            zero = neighbour_dist == 0.0
            inverse = 1.0 / np.where(zero, 1.0, neighbour_dist)
            zero_rows = zero.any(axis=-1)
        else:
            inverse = 1.0 / neighbour_dist
            zero_rows = None
        # Accumulate neighbour scores in k order — the same sequential
        # contraction order as einsum("nk,nkm->nm") in the per-cell path.
        # Neighbour-major index copy so each gather reads a contiguous
        # index row; the two buffers keep the loop allocation-free.
        flat_scores = scores.reshape(n_cells * n_benchmarks, n_targets)
        cell_offset = (np.arange(n_cells, dtype=np.intp) * n_benchmarks).reshape(
            n_cells, 1, 1, 1
        )
        neighbour_major = np.ascontiguousarray(
            (order + cell_offset).reshape(-1, k).T
        )
        block = (n_cells, n_pop, n_benchmarks, n_targets)
        predicted = np.empty(block)
        gathered = np.empty(block)
        predicted_flat = predicted.reshape(-1, n_targets)
        gathered_flat = gathered.reshape(-1, n_targets)
        np.take(flat_scores, neighbour_major[0], axis=0, out=predicted_flat)
        predicted *= inverse[..., 0, None]
        for j in range(1, k):
            np.take(flat_scores, neighbour_major[j], axis=0, out=gathered_flat)
            gathered *= inverse[..., j, None]
            predicted += gathered
        predicted /= inverse.sum(axis=-1)[..., None]

        if zero_rows is not None and zero_rows.any():
            for c, p, i in zip(*np.nonzero(zero_rows)):
                exact = order[c, p, i][neighbour_dist[c, p, i] == 0.0]
                predicted[c, p, i] = scores[c][exact].mean(axis=0)

        # In-place |predicted - scores| / scores, same arithmetic chain as
        # the sequential error computation.
        np.subtract(predicted, scores[:, None], out=predicted)
        np.abs(predicted, out=predicted)
        predicted /= scores[:, None]
        return predicted.mean(axis=-1).mean(axis=-1)


#: Source of the compiled kernels, built on first use by :func:`_compiled_library`.
_KERNEL_SOURCE = Path(__file__).with_name("_kernels.c")

#: Compiler flags of the kernels.  ``-ffp-contract=off`` keeps every
#: multiply and add separately rounded (no FMA), so ``-march=native``
#: vectorises without changing the bits; ``-fno-math-errno`` lets ``sqrt``
#: vectorise (it is correctly rounded either way); ``-ffast-math`` would
#: reorder the arithmetic and is never used.
_KERNEL_FLAGS = (
    "-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared",
)

#: Rows the compiled GA-kNN kernel evaluates at once (``LANES`` in
#: ``_kernels.c``), and the largest benchmark or target count it takes
#: (``MAX_EXTENT``): NumPy sums up to 128 terms in one pairwise block.
_GAKNN_LANES = 8
_GAKNN_MAX_EXTENT = 128


def _host_cpu() -> str:
    """The CPU feature line the ``-march=native`` build is specific to."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _cache_dir() -> str | None:
    """``$XDG_CACHE_HOME/repro`` (or ``~/.cache/repro``) if safe to load from.

    Created with mode 0700; refused (``None``) unless it is a real
    directory owned by this user that no one else can write to.
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    directory = os.path.join(base, "repro")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        info = os.lstat(directory)
    except OSError:
        return None
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid() or info.st_mode & 0o022:
        return None
    return directory


@functools.cache
def _compiled_library():
    """The compiled kernels as a loaded ctypes library, or ``None``.

    Built with the ``cc`` on ``PATH`` once per cache key — a digest of the
    source, the flags, the compiler's identity and the host CPU — into
    :func:`_cache_dir` (a private temporary directory when that is unsafe).
    The build writes a temporary file and renames it into place, so
    concurrent builders cannot load a half-written library.  ``None`` when
    there is no compiler or the build fails.
    """
    import hashlib  # imported here, as the library never needs them otherwise
    import subprocess

    compiler = shutil.which("cc")
    if compiler is None:
        return None
    directory = _cache_dir()
    private = directory is None
    try:
        if private:
            directory = tempfile.mkdtemp(prefix="repro-")
        identity = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True, check=True, timeout=60
        ).stdout.partition("\n")[0]
        key = hashlib.sha256()
        for part in (
            _KERNEL_SOURCE.read_bytes(), " ".join(_KERNEL_FLAGS).encode(),
            identity.encode(), _host_cpu().encode(),
        ):
            key.update(part + b"\0")
        library = os.path.join(directory, f"_kernels-{key.hexdigest()[:32]}.so")
        if not os.path.exists(library):
            handle, partial = tempfile.mkstemp(suffix=".so", dir=directory)
            os.close(handle)
            try:
                subprocess.run(
                    [compiler, *_KERNEL_FLAGS, "-o", partial, str(_KERNEL_SOURCE), "-lm"],
                    capture_output=True, check=True, timeout=300,
                )
                os.replace(partial, library)
            finally:
                if os.path.exists(partial):
                    os.unlink(partial)
        loaded = ctypes.CDLL(library)
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if private and directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
    loaded.mlp_sgd.argtypes = (
        [ctypes.c_int64] * 6 + [ctypes.c_void_p] * 13 + [ctypes.c_double] * 3 + [ctypes.c_void_p]
    )
    loaded.mlp_sgd.restype = None
    loaded.gaknn_fitness.argtypes = [ctypes.c_int64] * 6 + [ctypes.c_void_p] * 5
    loaded.gaknn_fitness.restype = ctypes.c_int
    return loaded


class CompiledBackend(NumpyBackend):
    """The MLP SGD loop and GA-kNN fitness compiled from ``_kernels.c``.

    Inherits the NumPy kernels' argument validation and replaces only the
    inner passes, which run in C with the GIL released; NNᵀ stays on NumPy.

    * ``mlp_sgd`` runs network-major.  Each element follows the NumPy
      loop's operation order, but dot products are summed sequentially
      (NumPy calls BLAS) and ``exp`` is the C library's, so trained weights
      agree with the NumPy reference within a declared tolerance
      (:data:`COMPILED_RTOL`), not bit for bit.  A network's weights still
      do not depend on which other networks share its stack.
    * ``gaknn_fitness`` is bit-identical to the NumPy pass: the same
      sequential distance accumulation, stable k-smallest selection and
      exact-match mean, and NumPy's own pairwise order wherever NumPy sums
      pairwise.  Benchmark or target counts above 128, NaN distances and
      rows short of k finite neighbours run the NumPy pass instead.

    Available when a C compiler is on ``PATH`` and the build succeeds.
    """

    name = "compiled"

    def __init__(self) -> None:
        self._library = _compiled_library()
        if self._library is None:
            raise RuntimeError("the compiled kernels cannot be built (no `cc` on PATH?)")

    @staticmethod
    def is_available() -> bool:
        """Whether the kernels are built and loaded (builds them on first call)."""
        return _compiled_library() is not None

    def _sgd_loop(
        self,
        x_samples: np.ndarray,
        y_samples: np.ndarray,
        w_hidden: np.ndarray,
        b_hidden: np.ndarray,
        w_output: np.ndarray,
        b_output: np.ndarray,
        shuffle_orders: np.ndarray,
        lr: float,
        momentum: float,
        clip: float,
        counts: np.ndarray,
        order_of: np.ndarray,
        column_counts: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n_networks, n_features, n_hidden = w_hidden.shape
        weights = tuple(
            np.require(w, np.float64, "CAW") for w in (w_hidden, b_hidden, w_output, b_output)
        )
        buffers = (
            np.ascontiguousarray(x_samples, dtype=np.float64),
            np.ascontiguousarray(y_samples, dtype=np.float64),
            *weights,
            *(np.zeros_like(w) for w in weights),
            np.ascontiguousarray(shuffle_orders, dtype=np.int64),
            np.ascontiguousarray(counts, dtype=np.int64),
            np.ascontiguousarray(order_of, dtype=np.int64),
        )
        scratch = np.empty(2 * n_hidden)
        self._library.mlp_sgd(
            n_networks, n_features, n_hidden, *shuffle_orders.shape,
            *(buffer.ctypes.data for buffer in buffers),
            lr, momentum, clip, scratch.ctypes.data,
        )
        return weights

    def _gaknn_pass(
        self,
        genomes: np.ndarray,
        pairwise_sq: np.ndarray,
        scores: np.ndarray,
        k: int,
    ) -> np.ndarray:
        n_cells, n_pop, n_genes = genomes.shape
        n_benchmarks, n_targets = scores.shape[1:]
        if n_genes >= 1 and 1 <= n_targets and max(n_benchmarks, n_targets) <= _GAKNN_MAX_EXTENT:
            buffers = tuple(
                np.ascontiguousarray(a, dtype=np.float64) for a in (genomes, pairwise_sq, scores)
            )
            fitness = np.empty((n_cells, n_pop))
            padded = -(-n_benchmarks // _GAKNN_LANES) * _GAKNN_LANES
            scratch = np.empty((n_genes + 1) * n_benchmarks * padded + _GAKNN_LANES)
            status = self._library.gaknn_fitness(
                n_cells, n_pop, n_genes, n_benchmarks, n_targets, k,
                *(buffer.ctypes.data for buffer in buffers),
                fitness.ctypes.data, scratch.ctypes.data,
            )
            if status == 0:
                return fitness
        return super()._gaknn_pass(genomes, pairwise_sq, scores, k)


#: Known backends, by configuration name.
BACKENDS: dict[str, type] = {
    NumpyBackend.name: NumpyBackend,
    CompiledBackend.name: CompiledBackend,
}

_INSTANCES: dict[str, ArrayBackend] = {}
_WARNED: set[str] = set()


def available_backends() -> tuple[str, ...]:
    """Names of the backends that can run right now.

    Examples::

        >>> "numpy" in available_backends()
        True
    """
    return tuple(name for name, cls in BACKENDS.items() if cls.is_available())


def resolve_backend(backend: "str | ArrayBackend | None" = None) -> ArrayBackend:
    """Resolve a backend name/instance/None to a ready :class:`ArrayBackend`.

    Resolution order: an explicit instance is returned as-is; an explicit
    name is looked up in :data:`BACKENDS`; ``None`` consults the
    ``REPRO_BACKEND`` environment variable and defaults to ``"compiled"``.
    A known but unavailable backend (no C compiler, a failed build, or a
    missing optional dependency) warns once per process and falls back to
    the NumPy reference so configurations degrade instead of failing;
    an unknown name raises ``ValueError``.

    Examples::

        >>> resolve_backend("numpy").name
        'numpy'
        >>> resolve_backend(NumpyBackend()).name
        'numpy'
    """
    if backend is not None and not isinstance(backend, str):
        return backend
    name = backend if backend is not None else os.environ.get(BACKEND_ENV_VAR, "")
    name = name.strip().lower() or DEFAULT_BACKEND
    if name not in BACKENDS:
        raise ValueError(
            f"unknown array backend {name!r} (known: {sorted(BACKENDS)})"
        )
    cls = BACKENDS[name]
    if not cls.is_available():
        if name not in _WARNED:
            _WARNED.add(name)
            warnings.warn(
                f"array backend {name!r} is not available (no C compiler, failed "
                "build or missing dependency); falling back to 'numpy'",
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
