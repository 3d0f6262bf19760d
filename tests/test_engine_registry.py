"""Tests for the unified method registry (repro.core.engine)."""

import numpy as np
import pytest

from repro.baselines.ga_knn import BatchedGAKNN, GAKNNBaseline
from repro.core import (
    BatchedLinearTransposition,
    BatchedMLPTransposition,
    TranspositionMethod,
    predict_split_scores,
    run_cross_validation,
)
from repro.core.engine import (
    CAPABILITIES,
    DEFAULT_METHOD,
    CapabilityMismatchError,
    DuplicateMethodError,
    MethodParams,
    MethodRegistryError,
    UnknownMethodError,
    create_method,
    create_methods,
    method_spec,
    register_method,
    registered_methods,
    resolve_methods,
    unregister_method,
)
from repro.data import build_default_dataset, family_cross_validation_splits
from repro.experiments.config import ExperimentConfig
from repro.experiments.methods import GAKNN, MLPT, NNT, standard_methods


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


# ------------------------------------------------------------- registry state
def test_canonical_methods_are_registered():
    names = {spec.name for spec in registered_methods()}
    assert {"NN^T", "MLP^T", "GA-kNN"} <= names
    assert {"NN^T/per-cell", "MLP^T/per-cell", "GA-kNN/per-cell"} <= names
    assert DEFAULT_METHOD in names


def test_per_cell_variants_share_the_canonical_label():
    for label in (NNT, MLPT, GAKNN):
        assert method_spec(label).label == label
        assert method_spec(f"{label}/per-cell").label == label


def test_batched_registrations_create_batched_implementations():
    assert isinstance(create_method("NN^T"), BatchedLinearTransposition)
    assert isinstance(create_method("MLP^T"), BatchedMLPTransposition)
    assert isinstance(create_method("GA-kNN"), BatchedGAKNN)
    per_cell = create_method("GA-kNN/per-cell")
    assert isinstance(per_cell, GAKNNBaseline)
    assert not isinstance(per_cell, BatchedGAKNN)


def test_factories_consume_method_params():
    params = MethodParams(
        mlp_epochs=33, ga_population=7, ga_generations=3, knn_neighbours=4, seed=9
    )
    mlpt = create_method("MLP^T", params)
    assert (mlpt.epochs, mlpt.seed) == (33, 9)
    gaknn = create_method("GA-kNN", params)
    assert (gaknn.k, gaknn.seed) == (4, 9)
    assert (gaknn.ga_config.population_size, gaknn.ga_config.generations) == (7, 3)


# --------------------------------------------------------------- error paths
def test_unknown_method_raises():
    with pytest.raises(UnknownMethodError, match="no-such-method"):
        method_spec("no-such-method")
    with pytest.raises(UnknownMethodError):
        create_method("no-such-method")
    with pytest.raises(UnknownMethodError):
        unregister_method("no-such-method")


def test_duplicate_registration_raises_unless_replaced():
    register_method("tmp-duplicate", lambda p: None, ["per-cell"])
    try:
        with pytest.raises(DuplicateMethodError, match="tmp-duplicate"):
            register_method("tmp-duplicate", lambda p: None, ["per-cell"])
        replaced = register_method(
            "tmp-duplicate", lambda p: "other", ["batched"], replace=True
        )
        assert replaced.capabilities == frozenset({"batched"})
    finally:
        unregister_method("tmp-duplicate")
    assert "tmp-duplicate" not in {spec.name for spec in registered_methods()}


def test_capability_mismatch_raises():
    with pytest.raises(CapabilityMismatchError, match="batched"):
        create_method("GA-kNN/per-cell", require=["batched"])
    # The requirement itself must come from the known vocabulary.
    with pytest.raises(MethodRegistryError, match="warp-speed"):
        create_method("NN^T", require=["warp-speed"])


def test_registration_validates_capabilities():
    with pytest.raises(MethodRegistryError, match="turbo"):
        register_method("tmp-bad-capability", lambda p: None, ["turbo"])
    with pytest.raises(MethodRegistryError):
        register_method("tmp-no-capability", lambda p: None, [])
    assert CAPABILITIES == {"batched", "per-cell", "backend"}


def test_create_methods_rejects_label_collisions():
    with pytest.raises(MethodRegistryError, match="NN"):
        create_methods(["NN^T", "NN^T/per-cell"])


# ---------------------------------------------------------------- resolution
def test_resolve_methods_passes_mappings_through():
    method = BatchedLinearTransposition()
    resolved = resolve_methods({"mine": method})
    assert resolved == {"mine": method}


def test_resolve_methods_builds_names_and_single_name():
    resolved = resolve_methods(["NN^T", "MLP^T"])
    assert sorted(resolved) == ["MLP^T", "NN^T"]
    assert isinstance(resolve_methods("NN^T")["NN^T"], BatchedLinearTransposition)


def test_pipeline_accepts_method_names(dataset):
    split = family_cross_validation_splits(dataset)[0]
    by_name = predict_split_scores(dataset, split, "NN^T", ["gcc"])
    by_instance = predict_split_scores(
        dataset, split, {"NN^T": BatchedLinearTransposition()}, ["gcc"]
    )
    np.testing.assert_array_equal(by_name["NN^T"]["gcc"], by_instance["NN^T"]["gcc"])

    results = run_cross_validation(dataset, [split], ["NN^T"], ["gcc", "mcf"])
    assert sorted(results) == ["NN^T"] and len(results["NN^T"].cells) == 2


def test_standard_methods_resolve_through_registry():
    config = ExperimentConfig.smoke()
    batched = standard_methods(config)
    assert sorted(batched) == [GAKNN, MLPT, NNT]
    assert isinstance(batched[GAKNN], BatchedGAKNN)
    assert batched[MLPT].epochs == config.mlp_epochs

    per_cell = standard_methods(config, batched=False)
    assert sorted(per_cell) == [GAKNN, MLPT, NNT]
    assert isinstance(per_cell[NNT], TranspositionMethod)
    assert not isinstance(per_cell[GAKNN], BatchedGAKNN)


def test_standard_methods_forward_backend_selection():
    config = ExperimentConfig.smoke()
    methods = standard_methods(config, backend="numpy")
    assert methods[NNT].backend == "numpy"
    assert methods[MLPT].backend == "numpy"
    assert methods[GAKNN].backend == "numpy"


# ------------------------------------------------------------------ discovery
def test_cli_list_methods_prints_the_registry(capsys):
    from repro.cli import main
    from repro.core.backends import resolve_backend

    assert main(["list-methods"]) == 0
    out = capsys.readouterr().out
    for spec in registered_methods():
        assert spec.name in out
    # The backend column resolves for backend-capable rows.
    assert resolve_backend().name in out


def test_every_method_documented_in_api_docs_is_registered():
    """The docs registry table and the live registry must agree (both ways)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / "check_registry.py"
    spec = importlib.util.spec_from_file_location("check_registry", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
