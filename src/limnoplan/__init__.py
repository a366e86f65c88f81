"""limnoplan: monitoring-effort planning for lake water clarity.

Given irregular multivariate lake-monitoring series, this package
completes missing covariates by chained-equation imputation, forecasts
Secchi disk depth with a ridge model, and determines how much recent
history and how few measurements suffice to stay within a fixed
tolerance of the full-data, full-feature reference:

- :mod:`limnoplan.dataset` - CSV ingest, exclusions, missingness
  profiles, lake ranking, train/test splitting
- :mod:`limnoplan.imputation` - chained-equation covariate completion
- :mod:`limnoplan.models` - ridge forecaster and regression forest
- :mod:`limnoplan.evaluation` - MAE/nMAE, the recent-history protocol
  and the engine that scores every (n, k) cell
- :mod:`limnoplan.selection` - forest-importance ranking
- :mod:`limnoplan.joint` - the (samples, features) feasibility grid,
  read as the sample curve, forward selection and the joint minimum
- :mod:`limnoplan.synth` - seeded synthetic lakes with ground truth
- :mod:`limnoplan.report` / :mod:`limnoplan.cli` - pipeline and CLI
"""

from .dataset import (
    LakeSeries,
    MissingnessProfile,
    SplitSeries,
    apply_exclusions,
    missingness_profile,
    parse_dataset,
    select_top_lakes,
    split_by_count,
    split_test_block,
    write_series_csv,
)
from .errors import (
    ConfigError,
    EvaluationError,
    FitError,
    ImputationError,
    InsufficientDataError,
    LimnoplanError,
    SchemaError,
)
from .evaluation import (
    EvalMetrics,
    SampleCurve,
    SizeGridSpec,
    backward_eval,
    complete_case_eval,
    mae,
    nmae,
    score_predictions,
)
from .imputation import (
    CompletedMatrix,
    ImputeConfig,
    ImputeReport,
    impute_series,
    initialize_fill,
    mice_impute,
)
from .joint import (
    FeasibilityGrid,
    JointSummary,
    MinimalConfig,
    aggregate_configs,
    feasibility_grid,
    forward_selection,
    minimal_config,
    sample_curve,
)
from .models import (
    ForestConfig,
    RidgeModel,
    fit_forests,
    fit_ridge,
    predict_ridge,
)
from .report import RunConfig, run_pipeline, train_test_table
from .selection import (
    FeatureRanking,
    SelectionResult,
    aggregate_ranking,
    rank_features,
)
from .synth import SynthConfig, SynthTruth, generate_lake

__version__ = "0.1.0"
