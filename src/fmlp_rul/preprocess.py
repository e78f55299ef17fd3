"""Sensor preprocessing: operating-condition removal, min-max scaling, and
fixed-length windowing with piece-wise RUL labels.

The pipeline order is: condition removal -> min-max -> windowing. Min-max
statistics are computed on full post-removal trajectories, not on windows.
"""

from dataclasses import dataclass

import numpy as np

from .cmapss import N_SETTINGS, DataSubset, EngineTrajectory
from .errors import DegenerateSensorError, NumericError, TrainingError

# Sensors whose post-removal range falls below this are flagged constant
# and excluded from the retained set.
CONSTANT_SENSOR_EPS = 1e-9

DEFAULT_RUL_CAP = 130

# Ridge on the diagonal of each condition fit's normal matrix (row weights
# sum to 1): it bounds the output weights where feature columns are collinear.
CONDITION_RIDGE = 1e-8

CONDITION_FIT_NOT_FINITE = "condition fit is not finite: settings or readings too large to fit"

# The scaled settings x and their products x_i * x_j with i <= j.
_PAIRS = np.triu_indices(N_SETTINGS)
CONDITION_FEATURES = N_SETTINGS + len(_PAIRS[0])


@dataclass
class ConditionModel:
    """Per-sensor regressors mapping the 3 operating settings to a
    predicted ("would-be") sensor value.

    Each sensor is a linear map of the same fixed quadratic features of the
    min-max scaled settings. Targets are standardized internally;
    predictions are returned in raw sensor units.
    """

    setting_min: np.ndarray  # (3,)
    setting_max: np.ndarray  # (3,)
    target_mean: np.ndarray  # (S,)
    target_scale: np.ndarray  # (S,)
    weights: np.ndarray  # (S, CONDITION_FEATURES)
    bias: np.ndarray  # (S,)

    def features(self, settings: np.ndarray) -> np.ndarray:
        """x and x_i * x_j (i <= j) of an (n, 3) block of scaled settings:
        (n, CONDITION_FEATURES)."""
        span = np.maximum(self.setting_max - self.setting_min, CONSTANT_SENSOR_EPS)
        x = (np.asarray(settings, dtype=np.float64) - self.setting_min) / span
        return np.column_stack([x, x[:, _PAIRS[0]] * x[:, _PAIRS[1]]])

    def predict(self, settings: np.ndarray) -> np.ndarray:
        """Predict all sensor values for an (n, 3) block of settings."""
        out = self.features(settings) @ self.weights.T + self.bias
        return out * self.target_scale + self.target_mean


def fit_condition_regressors(train: list[EngineTrajectory]) -> ConditionModel:
    """Fit one settings->sensor regressor per sensor: the ridge least-squares
    weights on the fixed features from one (F+1, F+1) solve with the S
    sensors as right-hand sides, on the distinct setting rows, each weighted
    by its share of the rows. A sensor whose fit the Bayesian information
    criterion does not prefer to its mean keeps weights = bias = 0: the mean.
    So does a constant sensor (standard deviation below CONSTANT_SENSOR_EPS),
    whose fit would be one of rounding noise.

    Deterministic. Raises TrainingError if the solution is not finite.
    """
    if not train:
        raise ValueError("need at least one training trajectory")

    x_raw = np.concatenate([t.op_settings for t in train], axis=0)
    y_raw = np.concatenate([t.sensors for t in train], axis=0)
    n, n_sensors = y_raw.shape
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        target_mean, target_std = y_raw.mean(axis=0), y_raw.std(axis=0)
    if not (np.isfinite(target_mean).all() and np.isfinite(target_std).all()):
        raise TrainingError(CONDITION_FIT_NOT_FINITE)
    f = CONDITION_FEATURES
    model = ConditionModel(
        setting_min=x_raw.min(axis=0),
        setting_max=x_raw.max(axis=0),
        target_mean=target_mean,
        target_scale=np.maximum(target_std, CONSTANT_SENSOR_EPS),
        weights=np.zeros((n_sensors, f)),
        bias=np.zeros(n_sensors),
    )

    distinct, group, counts = np.unique(x_raw, axis=0, return_inverse=True, return_counts=True)
    target_sum = np.zeros((len(distinct), n_sensors))
    np.add.at(target_sum, group.reshape(-1), y_raw)
    root_w = np.sqrt(counts / n)[:, None]
    # Each distinct row's standardized mean target, times its root weight.
    u = (target_sum / counts[:, None] - model.target_mean) / model.target_scale * root_w
    with np.errstate(over="ignore", invalid="ignore"):  # a span that overflows: checked below
        design = np.column_stack([model.features(distinct), np.ones(len(distinct))]) * root_w
    normal, rhs = design.T @ design + CONDITION_RIDGE * np.eye(f + 1), design.T @ u
    theta = np.linalg.solve(normal, rhs)  # (F+1, S): one column per sensor
    if not np.isfinite(theta).all():
        raise TrainingError(CONDITION_FIT_NOT_FINITE)

    # At the solution normal @ theta = rhs, so the rows' mean squared residual is
    # mean_sq - theta.(rhs + ridge theta). BIC keeps it if n ln(rss/mean_sq) + (F+1) ln n < 0.
    mean_sq = (target_std / model.target_scale) ** 2
    rss = mean_sq - (theta * (rhs + CONDITION_RIDGE * theta)).sum(axis=0)
    keep = (rss < mean_sq * float(n) ** (-(f + 1) / n)) & (target_std >= CONSTANT_SENSOR_EPS)
    model.weights[keep], model.bias[keep] = theta[:f, keep].T, theta[f, keep]
    return model


@dataclass
class MinMaxScaler:
    """Per-sensor global min/max over all training cycles and engines.

    Sensors whose range is below CONSTANT_SENSOR_EPS are flagged constant
    and excluded from the retained set.
    """

    minimum: np.ndarray  # (S,)
    maximum: np.ndarray  # (S,)

    def __post_init__(self):
        if np.any(self.maximum < self.minimum):
            raise ValueError("per-sensor max must be >= min")

    @property
    def constant_mask(self) -> np.ndarray:
        return (self.maximum - self.minimum) < CONSTANT_SENSOR_EPS

    @property
    def retained(self) -> np.ndarray:
        """0-based indices of sensors kept for modeling."""
        return np.nonzero(~self.constant_mask)[0]

    @property
    def sensor_ids(self) -> list[int]:
        """1-based ids of the retained sensors (C-MAPSS numbering)."""
        return [int(i) + 1 for i in self.retained]

    def scale_retained(self, sensors: np.ndarray) -> np.ndarray:
        """(x - min) / (max - min) on the retained sensor columns of an
        (n, S) block, unclamped."""
        keep = self.retained
        span = self.maximum[keep] - self.minimum[keep]
        return (sensors[:, keep] - self.minimum[keep]) / span


def fit_minmax(residuals: list[np.ndarray]) -> MinMaxScaler:
    """Compute per-sensor min/max over every row of (n, S) residual blocks."""
    if not residuals:
        raise ValueError("need at least one trajectory")
    stacked = np.concatenate(residuals, axis=0)
    return MinMaxScaler(minimum=stacked.min(axis=0), maximum=stacked.max(axis=0))


def transform_rows(
    settings: np.ndarray,
    sensors: np.ndarray,
    model: ConditionModel,
    scaler: MinMaxScaler,
) -> np.ndarray:
    """Condition removal then min-max scaling of (n, S) raw rows, keeping
    the retained sensors: (n, R). Both act row by row.

    Raises NumericError if a row does not scale to finite values."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        rows = scaler.scale_retained(sensors - model.predict(settings))
    if not np.isfinite(rows).all():
        raise NumericError("scaled rows are not finite: settings or readings too large to scale")
    return rows


def linear_rul(c, n_instances):
    """Linear label for the c-th of n_instances windows: n_instances - c.

    Works elementwise on arrays of window indices and counts.
    """
    c, n = np.asarray(c), np.asarray(n_instances)
    if np.any((c < 1) | (c > n)):
        raise ValueError(f"window index {c} outside 1..{n_instances}")
    return n - c


def piecewise_rul(c, n_instances, t_cap: float = DEFAULT_RUL_CAP):
    """Piece-wise label: the linear label capped at t_cap."""
    return np.minimum(t_cap, linear_rul(c, n_instances))


@dataclass
class Windows:
    """N windows of R sensor curves on the shared grid 1..M.

    curves is (N, R, M). labels is (N,) piece-wise RUL labels, or None for
    unlabeled test windows.
    """

    curves: np.ndarray
    labels: np.ndarray | None

    def __post_init__(self):
        if self.curves.ndim != 3:
            raise ValueError(f"curves {self.curves.shape} are not (N, R, M)")
        n = len(self.curves)
        if self.labels is not None and self.labels.shape != (n,):
            raise ValueError(f"labels {self.labels.shape} do not match {n} windows")

    def __len__(self) -> int:
        return len(self.curves)


def sliding_windows(
    units: list[np.ndarray], window_length: int, t_cap: float = DEFAULT_RUL_CAP
) -> Windows:
    """Every length-M_d window of each unit's (n, R) rows, units in order.

    The c-th of a unit's n windows is labeled with the piece-wise RUL
    min(t_cap, n - c). A unit shorter than the window gives no windows.
    """
    m = int(window_length)
    counts = np.array([max(len(rows) - m + 1, 0) for rows in units])
    ends = np.cumsum(counts)
    curves = np.empty((ends[-1], units[0].shape[1], m))
    for rows, end, n in zip(units, ends, counts):
        if n:
            curves[end - n : end] = np.lib.stride_tricks.sliding_window_view(rows, m, axis=0)
    c = np.arange(ends[-1]) - np.repeat(ends - counts, counts) + 1  # 1..n per unit
    return Windows(curves, piecewise_rul(c, np.repeat(counts, counts), t_cap).astype(np.float64))


def last_windows(
    trajectories: list[EngineTrajectory],
    window_length: int,
    model: ConditionModel,
    scaler: MinMaxScaler,
) -> Windows:
    """The final M_d cycles of each raw trajectory as one unlabeled window,
    in order, on the retained sensors after condition removal and min-max
    scaling.

    Both transforms act row by row, so only each trajectory's last
    min(n, M_d) rows are transformed, in one batch. A trajectory shorter
    than the window is left-padded by repeating its earliest observation,
    keeping the true readings at the latest grid positions.
    """
    m = int(window_length)
    rows = transform_rows(
        np.concatenate([t.op_settings[-m:] for t in trajectories]),
        np.concatenate([t.sensors[-m:] for t in trajectories]),
        model,
        scaler,
    )
    tail = np.minimum([t.n_cycles for t in trajectories], m)
    ends = np.cumsum(tail)
    # Grid point j of window i reads row ends[i] - m + j, clamped to the
    # first row of that trajectory's tail.
    index = np.maximum(ends[:, None] - m + np.arange(m), (ends - tail)[:, None])
    return Windows(np.ascontiguousarray(rows[index].transpose(0, 2, 1)), labels=None)


def fit_preprocessing(
    train: list[EngineTrajectory],
    _unused=None,  # perfbench/child.py's sweep set-up still passes cfg.condition_config()
) -> tuple[ConditionModel, MinMaxScaler]:
    """Fit the condition regressors, then the min-max scaler on residuals.
    Raises DegenerateSensorError if no sensor varies after removal."""
    model = fit_condition_regressors(train)
    residuals = [t.sensors - model.predict(t.op_settings) for t in train]
    scaler = fit_minmax(residuals)
    if not scaler.retained.size:
        largest = max(np.abs(scaler.minimum).max(), np.abs(scaler.maximum).max())
        raise DegenerateSensorError(
            f"no sensor varies after condition removal: every residual range is below"
            f" {CONSTANT_SENSOR_EPS:g} and the largest residual magnitude is {largest:.3g}:"
            " constant readings, or readings the settings determine, leave nothing to model"
        )
    return model, scaler


def training_instances(
    subset: DataSubset,
    model: ConditionModel,
    scaler: MinMaxScaler,
    t_cap: int = DEFAULT_RUL_CAP,
) -> Windows:
    """All labeled sliding windows from the subset's training units, each
    unit transformed on its own."""
    units = [transform_rows(t.op_settings, t.sensors, model, scaler) for t in subset.train]
    return sliding_windows(units, subset.window_length, t_cap)


def test_instances(
    subset: DataSubset, model: ConditionModel, scaler: MinMaxScaler
) -> Windows:
    """One unlabeled last window per test unit, in file order."""
    return last_windows(subset.test, subset.window_length, model, scaler)
