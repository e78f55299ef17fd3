"""Functional-MLP remaining-useful-life estimation on C-MAPSS-format data.

The pipeline: parse trajectory files, remove operating-condition effects,
min-max scale, cut sliding windows with piece-wise RUL labels, fit
per-sensor eigenfunction bases, train a functional MLP by gradient
descent, and evaluate with RMSE and the asymmetric score.
"""

from .cmapss import (
    SUBSET_IDS,
    WINDOW_LENGTHS,
    DataSubset,
    Trajectories,
    load_subset,
    parse_rul_file,
    parse_trajectory_file,
    read_file,
)
from .errors import (
    ArtifactError,
    ConfigError,
    DegenerateSensorError,
    FmlpRulError,
    IntegrityError,
    NumericError,
    ParseError,
    TrainingError,
)
from .evaluate import EvalReport, build_report, improvement, rmse, score
from .fmlp import (
    FmlpModel,
    Pipeline,
    TrainConfig,
    TrainResult,
    load_model,
    train,
)
from .fpca import EigenBasis, SensorBasis, fit_basis, project, select_num_components
from .numerics import eigh, seeded_rng
from .preprocess import (
    ConditionModel,
    MinMaxScaler,
    Windows,
    fit_condition_regressors,
    fit_preprocessing,
    last_windows,
    piecewise_rul,
    sliding_windows,
    test_instances,
    training_instances,
    transform_rows,
)

__version__ = "0.1.0"
