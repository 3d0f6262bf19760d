"""GA-kNN — the prior-art baseline of Hoste et al. [4].

The method the paper compares against ("Performance prediction based on
inherent program similarity", PACT 2006):

1. every benchmark and the application of interest are characterised by a
   vector of microarchitecture-independent characteristics (MICA; this
   reproduction uses the simulator's workload characteristics, which play
   the same role — see DESIGN.md);
2. a genetic algorithm learns one non-negative weight per characteristic so
   that weighted distances in the characteristic space predict performance
   differences well — the fitness is the leave-one-out k-NN prediction
   error over the training benchmarks on the machines with published
   scores; and
3. the application's score on a target machine is predicted as the
   distance-weighted average of the scores of its k = 10 nearest benchmarks
   on that machine.

Unlike data transposition, GA-kNN never uses measurements from predictive
machines: it relies purely on workload similarity, which is exactly why it
struggles when the application of interest is an outlier with respect to
the benchmark suite (Section 6.2).

Batched split-level evaluation
------------------------------
:class:`BatchedGAKNN` adds the engine's one-pass-per-split entry point
(:meth:`~BatchedGAKNN.predict_all_applications`).  Every leave-one-out cell
of a split historically ran its own identically-seeded GA over a
28-benchmark working set that differs from its neighbours' by a single row.
The batched path exploits both redundancies:

* the per-cell working sets (standardised features, pairwise squared
  differences, target score tables) are built once per split and stacked
  into shared ``(cells, ...)`` tensors instead of being rebuilt inside
  every GA; and
* the 29 per-cell GAs collapse into one
  :class:`~repro.ml.genetic.LockstepGeneticAlgorithm` whose fitness is one
  stacked ``(cells x population)`` call of the array backend's
  ``gaknn_fitness`` kernel per generation
  (:meth:`repro.core.backends.ArrayBackend.gaknn_fitness`), with elite
  fitnesses deduplicated across generations.

Results are **bit-identical** to the sequential per-cell path on every
backend — the lockstep GA consumes the same seeded random stream every
sequential cell consumed, and both fitness kernels (the NumPy tensor pass
and the compiled one) preserve the sequential reduction order element for
element (``tests/test_batched_gaknn.py`` pins this across all 17 family
splits).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.data.spec_dataset import SpecDataset
from repro.data.splits import MachineSplit
from repro.ml.genetic import GAConfig, GeneticAlgorithm, LockstepGeneticAlgorithm
from repro.ml.preprocessing import StandardScaler

__all__ = ["BatchedGAKNN", "GAKNNBaseline"]


class GAKNNBaseline:
    """GA-weighted k-nearest-neighbour performance prediction (GA-kNN).

    Parameters
    ----------
    k:
        Number of benchmark neighbours (the paper uses 10).
    ga_config:
        Genetic-algorithm hyper-parameters; the default is sized so that a
        full Table-2 sweep stays laptop-fast while still converging on the
        ~10-gene weight vectors involved.
    seed:
        Seed for the genetic algorithm.
    learn_weights:
        Set to False to skip the GA and use uniform weights (an ablation
        that isolates how much the learned weighting matters).
    """

    def __init__(
        self,
        k: int = 10,
        ga_config: GAConfig | None = None,
        seed: int = 0,
        learn_weights: bool = True,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self.ga_config = ga_config or GAConfig(population_size=24, generations=12)
        self.seed = int(seed)
        self.learn_weights = bool(learn_weights)
        self.learned_weights_: np.ndarray | None = None

    # ----------------------------------------------------------- internals
    @staticmethod
    def _standardised_features(dataset: SpecDataset, names: Sequence[str]) -> np.ndarray:
        features = dataset.benchmark_feature_matrix(list(names))
        return StandardScaler().fit_transform(features)

    def _knn_predict(
        self,
        query_features: np.ndarray,
        candidate_features: np.ndarray,
        candidate_scores: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        """Distance-weighted k-NN prediction of one workload's machine scores.

        ``candidate_scores`` is (candidates x machines); the return value is
        (machines,).
        """
        diff = candidate_features - query_features
        distances = np.sqrt(np.clip((weights * diff**2).sum(axis=1), 0.0, None))
        k = min(self.k, distances.size)
        neighbour_idx = np.argsort(distances, kind="mergesort")[:k]
        neighbour_dist = distances[neighbour_idx]
        if np.any(neighbour_dist == 0.0):
            exact = neighbour_idx[neighbour_dist == 0.0]
            return candidate_scores[exact].mean(axis=0)
        inverse = 1.0 / neighbour_dist
        return (inverse[:, None] * candidate_scores[neighbour_idx]).sum(axis=0) / inverse.sum()

    def _loo_fitness(
        self,
        weights: np.ndarray,
        pairwise_sq: np.ndarray,
        scores: np.ndarray,
        scratch: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> float:
        """Leave-one-out k-NN error of the training benchmarks under *weights*.

        Vectorised over all left-out benchmarks at once: *pairwise_sq* holds
        the precomputed ``(characteristics x benchmarks x benchmarks)``
        squared feature differences, so each GA fitness evaluation is a
        weighted reduction plus one batched k-neighbour selection instead of
        one :meth:`_knn_predict` call per benchmark.  It matches that
        per-benchmark loop (the equivalence suite enforces it): the weighted
        distance accumulates characteristic by characteristic in index
        order, which reproduces the per-row ``(weights * diff**2).sum``
        exactly while the reduction stays below NumPy's pairwise-summation
        block (true for the study's 7 MICA-style characteristics, where the
        GA's evolution trajectory and learned weights are bit-for-bit
        unchanged) and to ~1e-15 relative beyond that; every other
        gather/reduction below preserves the original operation order.
        """
        n_characteristics, n_benchmarks, _ = pairwise_sq.shape
        if scratch is not None:
            distances, term = scratch
        else:
            distances = np.empty((n_benchmarks, n_benchmarks))
            term = np.empty_like(distances)
        np.multiply(pairwise_sq[0], weights[0], out=distances)
        for f in range(1, n_characteristics):
            np.multiply(pairwise_sq[f], weights[f], out=term)
            distances += term
        np.sqrt(distances, out=distances)
        # A benchmark is never its own neighbour candidate.
        np.fill_diagonal(distances, np.inf)
        k = min(self.k, n_benchmarks - 1)
        order = np.argsort(distances, axis=1, kind="mergesort")[:, :k]
        neighbour_dist = distances[np.arange(n_benchmarks)[:, None], order]
        zero_rows = (neighbour_dist == 0.0).any(axis=1)
        inverse = 1.0 / np.where(neighbour_dist == 0.0, 1.0, neighbour_dist)
        predicted = np.einsum("nk,nkm->nm", inverse, scores[order]) / inverse.sum(
            axis=1
        )[:, None]
        for i in np.nonzero(zero_rows)[0]:
            exact = order[i][neighbour_dist[i] == 0.0]
            predicted[i] = scores[exact].mean(axis=0)
        errors = np.ascontiguousarray(np.abs(predicted - scores) / scores)
        return float(errors.mean(axis=1).mean())

    def learn_characteristic_weights(
        self,
        dataset: SpecDataset,
        split: MachineSplit,
        training_benchmarks: Sequence[str],
    ) -> np.ndarray:
        """Run the GA and return the learned per-characteristic weights."""
        features = self._standardised_features(dataset, training_benchmarks)
        train_matrix = dataset.matrix.select_benchmarks(list(training_benchmarks))
        scores = np.ascontiguousarray(
            train_matrix.select_machines(split.target_ids).scores
        )
        pairwise_sq = np.ascontiguousarray(
            ((features[:, None, :] - features[None, :, :]) ** 2).transpose(2, 0, 1)
        )
        n_benchmarks = features.shape[0]
        scratch = (
            np.empty((n_benchmarks, n_benchmarks)),
            np.empty((n_benchmarks, n_benchmarks)),
        )
        ga = GeneticAlgorithm(
            genome_length=features.shape[1],
            fitness=lambda genome: self._loo_fitness(genome, pairwise_sq, scores, scratch),
            config=self.ga_config,
            seed=self.seed,
        )
        best = ga.run()
        # An all-zero genome would make every distance zero; fall back to uniform.
        if not np.any(best > 0):
            best = np.ones_like(best)
        self.learned_weights_ = best
        return best

    # -------------------------------------------------------------- pipeline
    def predict_application_scores(
        self,
        dataset: SpecDataset,
        split: MachineSplit,
        application: str,
        training_benchmarks: Sequence[str],
    ) -> np.ndarray:
        """Predict the application's score on every target machine of *split*."""
        training = [name for name in training_benchmarks if name != application]
        if not training:
            raise ValueError("GA-kNN needs at least one training benchmark")

        if self.learn_weights:
            weights = self.learn_characteristic_weights(dataset, split, training)
        else:
            weights = np.ones(dataset.benchmark_feature_matrix([training[0]]).shape[1])
            self.learned_weights_ = weights

        # Standardise application + training benchmarks in a common space.
        all_names = training + [application]
        features = self._standardised_features(dataset, all_names)
        candidate_features = features[:-1]
        query_features = features[-1]

        train_matrix = dataset.matrix.select_benchmarks(training)
        candidate_scores = train_matrix.select_machines(split.target_ids).scores
        return self._knn_predict(query_features, candidate_features, candidate_scores, weights)


class BatchedGAKNN(GAKNNBaseline):
    """GA-kNN with a split-level batched entry point.

    Implements the engine's ``BatchedRankingMethod`` protocol on top of the
    per-cell :class:`GAKNNBaseline`: one call covers every leave-one-out
    application of a split, running all per-cell GAs in lockstep (see the
    module docstring).  Per-cell results are bit-identical to
    :meth:`GAKNNBaseline.predict_application_scores`.

    ``backend`` is an :class:`~repro.core.backends.ArrayBackend` name or
    instance for the fitness kernel (``None``: ``REPRO_BACKEND``, default
    the compiled kernel); every backend gives the same bits.

    After a batched call, :attr:`learned_weights_by_application_` maps each
    application to its learned weight vector (:attr:`learned_weights_`
    keeps the last cell's weights for drop-in compatibility).
    """

    def __init__(self, *args, backend: "str | object | None" = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.backend = backend
        self.learned_weights_by_application_: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------- batching
    def predict_all_applications(
        self,
        dataset: SpecDataset,
        split: MachineSplit,
        applications: Sequence[str],
    ) -> Mapping[str, np.ndarray]:
        """Predicted target scores for every application, in one GA pass.

        Each application is trained leave-one-out against every other
        dataset benchmark, exactly as the per-cell pipeline loop would hand
        them over; results are bit-identical to per-cell calls.
        """
        applications = list(applications)
        if not applications:
            return {}
        # One batched call = one split's results: drop any earlier split's
        # entries so the diagnostic mapping never mixes splits.
        self.learned_weights_by_application_.clear()
        benchmark_names = dataset.benchmark_names
        if len(benchmark_names) < 2:
            raise ValueError("GA-kNN needs at least one training benchmark")
        row_of = {name: row for row, name in enumerate(benchmark_names)}
        unknown = [name for name in applications if name not in row_of]
        if unknown:
            raise ValueError(f"unknown applications of interest: {unknown}")
        app_rows = np.array([row_of[name] for name in applications], dtype=np.intp)
        all_rows = np.arange(len(benchmark_names), dtype=np.intp)
        # Shared split-level statistics: the raw feature rows and the full
        # target-machine score block are built once; every cell's working
        # set is a row subset of them (the cells differ by one row), so the
        # per-cell values — and everything derived from them — stay
        # bit-identical to the sequential rebuild-per-cell path.
        full_features = dataset.benchmark_feature_matrix(benchmark_names)
        full_scores = dataset.matrix.select_machines(split.target_ids).scores

        if self.learn_weights:
            weights = self._learn_weights_lockstep(
                app_rows, all_rows, full_features, full_scores
            )
        else:
            weights = np.ones((len(applications), full_features.shape[1]))

        predictions: dict[str, np.ndarray] = {}
        for index, application in enumerate(applications):
            cell_weights = weights[index]
            self.learned_weights_by_application_[application] = cell_weights
            self.learned_weights_ = cell_weights
            # Final prediction exactly as the sequential cell computes it:
            # standardise training benchmarks + application (in that order)
            # in a common space, then distance-weighted k-NN.
            training_rows = all_rows[all_rows != app_rows[index]]
            features = StandardScaler().fit_transform(
                full_features[np.concatenate([training_rows, app_rows[index : index + 1]])]
            )
            predictions[application] = self._knn_predict(
                features[-1],
                features[:-1],
                full_scores[training_rows],
                cell_weights,
            )
        return predictions

    def _learn_weights_lockstep(
        self,
        app_rows: np.ndarray,
        all_rows: np.ndarray,
        full_features: np.ndarray,
        full_scores: np.ndarray,
    ) -> np.ndarray:
        """Learned weight vectors for all cells via one lockstep GA."""
        pairwise_blocks = []
        score_blocks = []
        for app_row in app_rows:
            # Per-cell working set, carved out of the shared split-level
            # blocks with the exact sequential arithmetic (standardisation
            # is fit on that cell's own training rows).
            training_rows = all_rows[all_rows != app_row]
            features = StandardScaler().fit_transform(full_features[training_rows])
            score_blocks.append(full_scores[training_rows])
            pairwise_blocks.append(
                ((features[:, None, :] - features[None, :, :]) ** 2).transpose(2, 0, 1)
            )
        pairwise_sq = np.ascontiguousarray(np.stack(pairwise_blocks))
        scores = np.ascontiguousarray(np.stack(score_blocks))

        from repro.core.backends import resolve_backend

        backend = resolve_backend(self.backend)
        best = LockstepGeneticAlgorithm(
            n_problems=len(app_rows),
            genome_length=pairwise_sq.shape[1],
            fitness=lambda block: backend.gaknn_fitness(block, pairwise_sq, scores, self.k),
            config=self.ga_config,
            seed=self.seed,
        ).run()
        # An all-zero genome would make every distance zero; fall back to
        # uniform weights, mirroring the per-cell GA.
        degenerate = ~np.any(best > 0, axis=1)
        best[degenerate] = 1.0
        return best
