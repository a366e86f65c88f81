"""Input checks that no other test reaches: one case per raise, each
asserting its error class and its whole message."""

import re

import numpy as np
import pytest

from limnoplan.dataset import missingness_profile, split_by_count, split_test_block
from limnoplan.errors import ConfigError, EvaluationError, FitError, ImputationError, InsufficientDataError, SchemaError
from limnoplan.evaluation import SizeGridSpec, complete_case_eval, prefix_nmae
from limnoplan.imputation import CompletedMatrix, ImputeConfig, initialize_fill
from limnoplan.models import ForestConfig, fit_forests, fit_ridge
from limnoplan.report import RunConfig
from limnoplan.synth import SynthConfig, generate_lake

from conftest import series_from_arrays

SCHEMA = ["x1", "x2"]


def lake(sdd=(3.0, 2.0, 4.0, 3.5, 2.5, 3.0), X=None):
    """A six-visit lake of two covariates, with lake id 7."""
    if X is None:
        X = np.arange(12.0).reshape(6, 2) % 5
    return series_from_arrays(7, list(sdd), X, SCHEMA)


def split_and_completed(series, values=None):
    """The lake's first four observed rows as the training pool, and its covariates as the completed matrix."""
    values = series.covariates if values is None else values
    return split_by_count(series, 4), CompletedMatrix(values, SCHEMA, np.zeros(values.shape, dtype=bool))


def nan_in_pool():
    """prefix_nmae arguments whose training pool holds a NaN covariate."""
    values = lake().covariates.copy()
    values[3, 0] = np.nan
    return (*split_and_completed(lake(), values), [4], SCHEMA)


def without_complete_test_rows():
    """complete_case_eval arguments whose test rows all miss the selected covariate."""
    X = lake().covariates.copy()
    X[4:, 0] = np.nan
    return split_by_count(lake(X=X), 4), None, ["x1"]


CASES = {
    "dataset-no-covariates": (
        lambda: missingness_profile(series_from_arrays(7, [1.0, 2.0], np.empty((2, 0)), [])),
        SchemaError, "lake 7: no covariates in schema",
    ),
    "dataset-zero-test-years": (lambda: split_test_block(lake(), 0), ValueError, "years must be >= 1"),
    "dataset-one-observed-target": (
        lambda: split_test_block(lake(sdd=[3.0] + [np.nan] * 5)),
        InsufficientDataError, "lake 7: need at least 2 rows with observed target, have 1",
    ),
    "dataset-empty-pool": (
        lambda: split_by_count(lake(), 0),
        InsufficientDataError, "lake 7: cannot reserve 0 of 6 observed rows for training",
    ),
    "evaluation-zero-stride": (lambda: SizeGridSpec(stride=0).resolve(10, 2), EvaluationError, "stride must be >= 1"),
    "evaluation-empty-subset": (
        lambda: prefix_nmae(*split_and_completed(lake()), [4], []), EvaluationError, "feature subset is empty"
    ),
    "evaluation-size-over-pool": (
        lambda: prefix_nmae(*split_and_completed(lake()), [5], SCHEMA),
        EvaluationError, "training size 5 exceeds the 4-row training pool",
    ),
    "evaluation-non-finite-pool": (
        lambda: prefix_nmae(*nan_in_pool()), FitError, "non-finite values in design or target"
    ),
    "evaluation-nonpositive-normalizer": (
        lambda: prefix_nmae(*split_and_completed(lake(sdd=[3.0, 2.0, 4.0, 3.5, -1.0, -1.0])), [4], SCHEMA),
        EvaluationError, "nMAE normalizer (mean target) must be positive, got -1.0",
    ),
    "evaluation-no-complete-test-row": (
        lambda: complete_case_eval(*without_complete_test_rows()),
        EvaluationError, "complete-case deletion removed every test row",
    ),
    "imputation-zero-sweeps": (lambda: ImputeConfig(max_sweeps=0), ValueError, "max_sweeps must be >= 1"),
    "imputation-negative-penalty": (
        lambda: ImputeConfig(ridge_penalty=-1.0), ValueError, "ridge_penalty must be nonnegative"
    ),
    "imputation-1d-matrix": (
        lambda: initialize_fill(np.zeros(3)), ImputationError, "expected a 2-d matrix, got shape (3,)"
    ),
    "imputation-short-schema": (
        lambda: initialize_fill(np.zeros((3, 2)), ["x1"]),
        ImputationError, "feature_schema length does not match the matrix width",
    ),
    "models-ridge-bad-shapes": (
        lambda: fit_ridge(np.zeros((3, 2)), np.zeros(4)), FitError, "bad shapes: X (3, 2), y (4,)"
    ),
    "models-forest-bad-shapes": (
        lambda: fit_forests([(np.zeros((3, 2)), np.zeros(4), ForestConfig(), None)]),
        FitError, "bad shapes: X (3, 2), y (4,)",
    ),
    "models-forest-non-finite": (
        lambda: fit_forests([(np.array([[1.0], [np.nan]]), np.zeros(2), ForestConfig(), None)]),
        FitError, "non-finite values in design or target",
    ),
    "report-zero-test-years": (lambda: RunConfig(test_years=0), ConfigError, "test_years must be >= 1"),
    "synth-fraction-per-feature": (
        lambda: generate_lake(SynthConfig(n_features=3, missing_fraction=(0.1, 0.2))),
        ValueError, "missing_fraction length must equal n_features",
    ),
    "synth-no-features": (lambda: generate_lake(SynthConfig(n_features=0)), ValueError, "n_features must be >= 1"),
    "synth-mar-driver-out-of-range": (
        lambda: generate_lake(SynthConfig(n_features=3, mar_driver=3)), ValueError, "mar_driver must index a feature"
    ),
    "synth-cross-correlation-one": (
        lambda: generate_lake(SynthConfig(cross_correlation=1.0)), ValueError, "cross_correlation must lie in [0, 1)"
    ),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_check_raises_its_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
