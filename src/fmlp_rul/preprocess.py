"""Sensor preprocessing: operating-condition removal, min-max scaling, and
fixed-length windowing with piece-wise RUL labels.

The pipeline order is: condition removal -> min-max -> windowing. Min-max
statistics are computed on full post-removal trajectories, not on windows.
"""

from dataclasses import dataclass, fields

import numpy as np

from .cmapss import N_SETTINGS, DataSubset, Trajectories
from .errors import DegenerateSensorError, NumericError, TrainingError, check_finite

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

    def __post_init__(self):
        check_finite((f.name, getattr(self, f.name)) for f in fields(self))

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


def fit_condition_regressors(settings: np.ndarray, sensors: np.ndarray) -> ConditionModel:
    """Fit one settings->sensor regressor per sensor on (n, 3) settings and
    (n, S) readings: the ridge least-squares weights on the fixed features
    from one (F+1, F+1) solve with the S sensors as right-hand sides, every
    row weighted 1/n. A sensor whose fit the Bayesian information criterion
    does not prefer to its mean keeps weights = bias = 0: the mean. So does a
    constant sensor (standard deviation below CONSTANT_SENSOR_EPS), whose fit
    would be one of rounding noise.

    Deterministic. Raises TrainingError if the solution is not finite.
    """
    n, n_sensors = sensors.shape
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        target_mean, target_std = sensors.mean(axis=0), sensors.std(axis=0)
    if not (np.isfinite(target_mean).all() and np.isfinite(target_std).all()):
        raise TrainingError(CONDITION_FIT_NOT_FINITE)
    f = CONDITION_FEATURES
    model = ConditionModel(
        setting_min=settings.min(axis=0),
        setting_max=settings.max(axis=0),
        target_mean=target_mean,
        target_scale=np.maximum(target_std, CONSTANT_SENSOR_EPS),
        weights=np.zeros((n_sensors, f)),
        bias=np.zeros(n_sensors),
    )

    u = (sensors - model.target_mean) / model.target_scale  # standardized targets
    with np.errstate(over="ignore", invalid="ignore"):  # a span that overflows: checked below
        design = np.column_stack([model.features(settings), np.ones(n)])
    normal, rhs = design.T @ design / n + CONDITION_RIDGE * np.eye(f + 1), design.T @ u / n
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
        check_finite((("minimum", self.minimum), ("maximum", self.maximum)))
        below = np.flatnonzero(self.maximum < self.minimum) + 1
        if below.size:
            raise ValueError(f"maximum is below minimum for sensors {below.tolist()}")

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


def piecewise_rul(c, n_instances, t_cap: float = DEFAULT_RUL_CAP):
    """Piece-wise linear label for the c-th of n_instances windows,
    min(t_cap, n_instances - c), elementwise on arrays of indices and counts."""
    c, n = np.asarray(c), np.asarray(n_instances)
    if np.any((c < 1) | (c > n)):
        raise ValueError(f"window index {c} outside 1..{n_instances}")
    return np.minimum(t_cap, n - c)


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
    rows: np.ndarray, offsets, window_length: int, t_cap: float = DEFAULT_RUL_CAP
) -> Windows:
    """Every length-M_d window of each unit's rows of the (n, R) ``rows``,
    units in order; unit i owns rows offsets[i] to offsets[i + 1].

    The c-th of a unit's k windows is labeled with the piece-wise RUL
    min(t_cap, k - c). A unit shorter than the window gives no windows.
    """
    m = int(window_length)
    counts = np.maximum(np.diff(offsets) - m + 1, 0)
    c = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)  # 0..k-1 per unit
    starts = np.repeat(np.asarray(offsets)[:-1], counts) + c
    columns = np.ascontiguousarray(rows.T)  # a window reads m adjacent cells of each sensor
    if len(starts):
        view = np.lib.stride_tricks.sliding_window_view(columns, m, axis=1)  # (R, n - m + 1, m)
        curves = view.transpose(1, 0, 2)[starts]
    else:  # the view needs at least m rows
        curves = np.empty((0, len(columns), m))
    labels = piecewise_rul(c + 1, np.repeat(counts, counts), t_cap).astype(np.float64)
    return Windows(curves, labels)


def last_windows(
    split: Trajectories,
    window_length: int,
    model: ConditionModel,
    scaler: MinMaxScaler,
) -> Windows:
    """The final M_d cycles of each unit of a raw split as one unlabeled
    window, in order, on the retained sensors after condition removal and
    min-max scaling, which act row by row: only the windows' rows are
    transformed, in one batch. A unit shorter than the window is left-padded
    by repeating its earliest observation, keeping the true readings at the
    latest grid positions."""
    m = int(window_length)
    # Grid point j of unit i's window reads row offsets[i + 1] - m + j,
    # clamped to the unit's first row.
    index = np.maximum(split.offsets[1:, None] - m + np.arange(m), split.offsets[:-1, None]).ravel()
    rows = transform_rows(split.op_settings[index], split.sensors[index], model, scaler)
    curves = rows.reshape(len(split), m, rows.shape[1]).transpose(0, 2, 1)
    return Windows(np.ascontiguousarray(curves), labels=None)


def fit_preprocessing(
    train: Trajectories,
    _unused=None,  # perfbench/child.py's sweep set-up still passes cfg.condition_config()
) -> tuple[ConditionModel, MinMaxScaler]:
    """Fit the condition regressors, then the min-max scaler on their
    residuals, both on every training row at once.
    Raises DegenerateSensorError if no sensor varies after removal."""
    if not len(train):
        raise ValueError("need at least one training trajectory")
    settings, sensors = np.ascontiguousarray(train.op_settings), np.ascontiguousarray(train.sensors)
    model = fit_condition_regressors(settings, sensors)
    residuals = sensors - model.predict(settings)
    scaler = MinMaxScaler(minimum=residuals.min(axis=0), maximum=residuals.max(axis=0))
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
    """All labeled sliding windows from the subset's training units."""
    rows = transform_rows(subset.train.op_settings, subset.train.sensors, model, scaler)
    return sliding_windows(rows, subset.train.offsets, subset.window_length, t_cap)


def test_instances(
    subset: DataSubset, model: ConditionModel, scaler: MinMaxScaler
) -> Windows:
    """One unlabeled last window per test unit, in file order."""
    return last_windows(subset.test, subset.window_length, model, scaler)
