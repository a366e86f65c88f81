"""Shared fixture builders for the test suite."""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest

from limnoplan import models
from limnoplan.dataset import LakeSeries
from limnoplan.imputation import CompletedMatrix, initialize_fill


def series_from_arrays(
    lake_id: int,
    sdd: np.ndarray,
    X: np.ndarray,
    schema: list[str],
    start: date = date(2000, 1, 1),
    step_days: int = 14,
    name: str = "Testpond",
    dates=None,
    flags=None,
) -> LakeSeries:
    """LakeSeries from copies of plain arrays; NaN cells are gaps.

    Visits are `step_days` apart from `start` unless `dates` is given;
    `flags` marks disk-on-bottom casts (none by default).
    """
    n = len(sdd)
    if dates is None:
        dates = [start + timedelta(days=i * step_days) for i in range(n)]
    return LakeSeries(
        lake_id=lake_id,
        name=name,
        dates=dates,
        sdd=np.array(sdd, dtype=float),
        covariates=np.array(X, dtype=float),
        feature_schema=list(schema),
        sdd_to_bottom=np.zeros(n, dtype=bool) if flags is None else flags,
    )


def assert_same_series(a: LakeSeries, b: LakeSeries) -> None:
    """Every column and attribute equal; gaps match gaps."""
    assert (a.lake_id, a.name, a.feature_schema) == (b.lake_id, b.name, b.feature_schema)
    assert np.array_equal(a.dates, b.dates)
    assert np.array_equal(a.sdd, b.sdd, equal_nan=True)
    assert np.array_equal(a.covariates, b.covariates, equal_nan=True)
    assert np.array_equal(a.sdd_to_bottom, b.sdd_to_bottom)


def completed_from_series(series: LakeSeries) -> CompletedMatrix:
    """Completion of a series that must already be gap-free."""
    assert not np.isnan(series.covariates).any(), "fixture expected to be gap-free"
    return initialize_fill(series.covariates, list(series.feature_schema))


def count_passes(monkeypatch) -> list[int]:
    """Swap in a forest grower that notes how many forests each pass grows; returns those counts."""
    passes, grow = [], models._grow_forests

    def counting(jobs, *args, **kwargs):
        passes.append(len(jobs))
        return grow(jobs, *args, **kwargs)

    monkeypatch.setattr(models, "_grow_forests", counting)
    return passes


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
