"""Sensor preprocessing: operating-condition removal, min-max scaling, and
fixed-length windowing with piece-wise RUL labels.

The pipeline order is: condition removal -> min-max -> windowing. Min-max
statistics are computed on full post-removal trajectories, not on windows.
"""

from dataclasses import dataclass

import numpy as np

from .cmapss import N_SETTINGS, DataSubset, EngineTrajectory
from .errors import DegenerateSensorError, TrainingError
from .numerics import logistic, seeded_rng

# Sensors whose post-removal range falls below this are flagged constant
# and excluded from the retained set.
CONSTANT_SENSOR_EPS = 1e-9

DEFAULT_RUL_CAP = 130

# Ridge on the diagonal of each condition fit's normal matrix (row weights
# sum to 1): it bounds the output weights where hidden columns are collinear.
CONDITION_RIDGE = 1e-8


@dataclass
class ConditionFitConfig:
    """Hyperparameters for the per-sensor condition regressors."""

    hidden_units: int = 8
    seed: int = 0

    def __post_init__(self):
        if not self.hidden_units > 0:
            raise ValueError(f"hidden_units must be > 0, got {self.hidden_units}")


@dataclass
class ConditionModel:
    """Per-sensor regressors mapping the 3 operating settings to a
    predicted ("would-be") sensor value.

    Each sensor has an independent single-hidden-layer network (logistic
    hidden units, linear output). Inputs are min-max scaled and targets are
    standardized internally; predictions are returned in raw sensor units.
    """

    setting_min: np.ndarray  # (3,)
    setting_max: np.ndarray  # (3,)
    target_mean: np.ndarray  # (S,)
    target_scale: np.ndarray  # (S,)
    w1: np.ndarray  # (S, 3, H)
    b1: np.ndarray  # (S, H)
    w2: np.ndarray  # (S, H)
    b2: np.ndarray  # (S,)
    config: ConditionFitConfig

    def hidden(self, settings: np.ndarray) -> np.ndarray:
        """Every sensor's hidden activations for an (n, 3) block of
        settings: (n, S*H), sensor-major along the columns."""
        span = np.maximum(self.setting_max - self.setting_min, CONSTANT_SENSOR_EPS)
        x = (np.asarray(settings, dtype=np.float64) - self.setting_min) / span
        w1_flat = self.w1.transpose(1, 0, 2).reshape(N_SETTINGS, -1)
        return logistic(x @ w1_flat + self.b1.reshape(-1))

    def predict(self, settings: np.ndarray) -> np.ndarray:
        """Predict all sensor values for an (n, 3) block of settings."""
        n_sensors, _, h = self.w1.shape
        hidden_s = self.hidden(settings).reshape(-1, n_sensors, h).transpose(1, 0, 2)
        out = (hidden_s @ self.w2[:, :, None])[:, :, 0].T + self.b2
        return out * self.target_scale + self.target_mean


def fit_condition_regressors(
    train: list[EngineTrajectory], cfg: ConditionFitConfig | None = None
) -> ConditionModel:
    """Fit one settings->sensor regressor per sensor: a seeded random hidden
    layer, then the ridge least-squares output layer from one (H+1, H+1)
    solve per sensor on the distinct setting rows, each weighted by its
    share of the rows. A sensor whose fit the Bayesian information
    criterion does not prefer to its mean keeps w2 = b2 = 0: the mean.

    Deterministic. Raises TrainingError if the solution is not finite.
    """
    if not train:
        raise ValueError("need at least one training trajectory")
    cfg = cfg or ConditionFitConfig()

    x_raw = np.concatenate([t.op_settings for t in train], axis=0)
    y_raw = np.concatenate([t.sensors for t in train], axis=0)
    n, n_sensors = y_raw.shape
    target_std = y_raw.std(axis=0)
    h = cfg.hidden_units
    # Steep units centred at random points of the scaled settings cube bend
    # inside the data, so that their columns can fit a non-linear regime map.
    rng = seeded_rng(cfg.seed)
    w1 = rng.uniform(-6.0, 6.0, size=(n_sensors, N_SETTINGS, h))
    model = ConditionModel(
        setting_min=x_raw.min(axis=0),
        setting_max=x_raw.max(axis=0),
        target_mean=y_raw.mean(axis=0),
        target_scale=np.maximum(target_std, CONSTANT_SENSOR_EPS),
        w1=w1,
        b1=-(w1 * rng.uniform(0.0, 1.0, size=w1.shape)).sum(axis=1),  # minus w1 . centre
        w2=np.zeros((n_sensors, h)),
        b2=np.zeros(n_sensors),
        config=cfg,
    )

    distinct, group, counts = np.unique(x_raw, axis=0, return_inverse=True, return_counts=True)
    target_sum = np.zeros((len(distinct), n_sensors))
    np.add.at(target_sum, group.reshape(-1), y_raw)
    root_w = np.sqrt(counts / n)
    # Each distinct row's standardized mean target, times its root weight.
    u = (target_sum / counts[:, None] - model.target_mean) / model.target_scale * root_w[:, None]
    hidden = model.hidden(distinct)
    hidden *= root_w[:, None]
    # Sensor s's root-weighted design is [g[s], root_w]: the ones column of
    # the output bias stays implicit, so the (rows, S*H) array is not copied.
    g = hidden.reshape(-1, n_sensors, h).transpose(1, 0, 2)
    g_t = g.transpose(0, 2, 1)
    normal = np.empty((n_sensors, h + 1, h + 1))
    normal[:, :h, :h] = g_t @ g
    normal[:, :h, h] = normal[:, h, :h] = root_w @ g
    normal[:, h, h] = root_w @ root_w
    normal += CONDITION_RIDGE * np.eye(h + 1)
    rhs = np.empty((n_sensors, h + 1, 1))  # 3-D: numpy 2 reads a 1-D rhs as one vector
    rhs[:, :h] = g_t @ u.T[:, :, None]
    rhs[:, h, 0] = root_w @ u
    theta = np.linalg.solve(normal, rhs)[:, :, 0]
    if not np.isfinite(theta).all():
        raise TrainingError("condition fit is not finite: settings or readings too large to fit")

    # At the solution normal @ theta = rhs, so the rows' mean squared residual is
    # mean_sq - theta.(rhs + ridge theta). BIC keeps it if n ln(rss/mean_sq) + (H+1) ln n < 0.
    mean_sq = (target_std / model.target_scale) ** 2
    rss = mean_sq - (theta * (rhs[:, :, 0] + CONDITION_RIDGE * theta)).sum(axis=1)
    keep = rss < mean_sq * float(n) ** (-(h + 1) / n)
    model.w2[keep], model.b2[keep] = theta[keep, :h], theta[keep, h]
    return model


def remove_condition_effect(
    settings: np.ndarray, sensors: np.ndarray, model: ConditionModel
) -> np.ndarray:
    """Raw (n, S) sensor rows minus the regressor's would-be values."""
    return sensors - model.predict(settings)


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
    the retained sensors: (n, R). Both act row by row."""
    return scaler.scale_retained(remove_condition_effect(settings, sensors, model))


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
    """N windows of R sensor curves on one shared grid of M points.

    curves is (N, R, M). labels is (N,) piece-wise RUL labels, or None for
    unlabeled test windows.
    """

    grid: np.ndarray
    curves: np.ndarray
    labels: np.ndarray | None

    def __post_init__(self):
        if self.curves.ndim != 3 or self.curves.shape[2] != len(self.grid):
            raise ValueError(
                f"curves {self.curves.shape} do not match grid length {len(self.grid)}"
            )
        n = len(self.curves)
        if self.labels is not None and self.labels.shape != (n,):
            raise ValueError(f"labels {self.labels.shape} do not match {n} windows")

    def __len__(self) -> int:
        return len(self.curves)


def _window_grid(window_length: int) -> np.ndarray:
    return np.arange(1, window_length + 1, dtype=np.float64)


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
    return Windows(
        grid=_window_grid(m),
        curves=curves,
        labels=piecewise_rul(c, np.repeat(counts, counts), t_cap).astype(np.float64),
    )


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
    return Windows(
        grid=_window_grid(m),
        curves=np.ascontiguousarray(rows[index].transpose(0, 2, 1)),
        labels=None,
    )


def fit_preprocessing(
    train: list[EngineTrajectory], cfg: ConditionFitConfig | None = None
) -> tuple[ConditionModel, MinMaxScaler]:
    """Fit the condition regressors, then the min-max scaler on residuals.
    Raises DegenerateSensorError if no sensor varies after removal."""
    model = fit_condition_regressors(train, cfg)
    residuals = [remove_condition_effect(t.op_settings, t.sensors, model) for t in train]
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
