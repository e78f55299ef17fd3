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

# Byte budget of one (rows, sensor*hidden) float64 tile buffer in the
# condition fit, so that its working set stays in a core's L2 cache.
_TILE_BYTES = 256 * 1024


@dataclass
class ConditionFitConfig:
    """Hyperparameters for the per-sensor condition regressors."""

    hidden_units: int = 8
    epochs: int = 500
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("hidden_units", "epochs", "learning_rate"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


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

    def _scale_settings(self, settings: np.ndarray) -> np.ndarray:
        span = np.maximum(self.setting_max - self.setting_min, CONSTANT_SENSOR_EPS)
        return (settings - self.setting_min) / span

    def predict(self, settings: np.ndarray) -> np.ndarray:
        """Predict all sensor values for an (n, 3) block of settings."""
        x = self._scale_settings(np.asarray(settings, dtype=np.float64))
        n_sensors, _, h = self.w1.shape
        w1_flat = self.w1.transpose(1, 0, 2).reshape(N_SETTINGS, n_sensors * h)
        hidden = logistic(x @ w1_flat + self.b1.reshape(-1))
        hidden_s = hidden.reshape(-1, n_sensors, h).transpose(1, 0, 2)
        out = (hidden_s @ self.w2[:, :, None])[:, :, 0].T + self.b2
        return out * self.target_scale + self.target_mean


def fit_condition_regressors(
    train: list[EngineTrajectory], cfg: ConditionFitConfig | None = None
) -> ConditionModel:
    """Fit one settings->sensor regressor per sensor by full-batch gradient
    descent on squared error, for the configured epoch budget.

    The hidden layer sees only the settings, so the fit runs on the distinct
    setting rows: each one carries its row count and its summed targets,
    which give the same full-batch gradient as the rows it stands for.

    Deterministic: identical seed and data give identical parameters.
    """
    if not train:
        raise ValueError("need at least one training trajectory")
    cfg = cfg or ConditionFitConfig()

    x_raw = np.concatenate([t.op_settings for t in train], axis=0)
    y_raw = np.concatenate([t.sensors for t in train], axis=0)
    n = x_raw.shape[0]

    setting_min = x_raw.min(axis=0)
    setting_max = x_raw.max(axis=0)
    span = np.maximum(setting_max - setting_min, CONSTANT_SENSOR_EPS)

    target_mean = y_raw.mean(axis=0)
    target_scale = np.maximum(y_raw.std(axis=0), CONSTANT_SENSOR_EPS)
    y = (y_raw - target_mean) / target_scale
    n_sensors = y.shape[1]

    distinct, group, counts = np.unique(
        x_raw, axis=0, return_inverse=True, return_counts=True
    )
    # A ones row carries the hidden bias through the first-layer products.
    x = np.vstack([((distinct - setting_min) / span).T, np.ones(len(distinct))])
    # The squared-error gradient at a distinct row's prediction p is
    # weight * p - target, with its row count and target sum scaled by 2/n.
    weight = counts * (2.0 / n)
    target = np.zeros((len(distinct), n_sensors))
    np.add.at(target, group.reshape(-1), y)
    target = (2.0 / n) * target.T  # (S, rows), the layout of the per-sensor products

    h = cfg.hidden_units
    rng = seeded_rng(cfg.seed)
    w1 = rng.uniform(-0.5, 0.5, size=(n_sensors, N_SETTINGS, h))
    w2 = rng.uniform(-0.5, 0.5, size=(n_sensors, h))
    b2 = np.zeros(n_sensors)

    # All sensors train at once: the first layer is one (settings+1,
    # sensor*hidden) matrix, held negated so that its product is the
    # logistic's exponent; the second layer and both gradients are
    # per-sensor matmuls on the (sensor, rows, hidden) view. Each epoch
    # streams the rows through tiles whose buffers stay in cache.
    lr = cfg.learning_rate
    neg_w1b = np.zeros((N_SETTINGS + 1, n_sensors * h))
    neg_w1b[:N_SETTINGS] = -w1.transpose(1, 0, 2).reshape(N_SETTINGS, -1)
    tile = max(1, _TILE_BYTES // (8 * n_sensors * h))
    hidden_buf = np.empty((tile, n_sensors * h))
    slope_buf = np.empty_like(hidden_buf)
    outer_buf = np.empty((n_sensors, N_SETTINGS + 1, tile))
    for epoch in range(1, cfg.epochs + 1):
        # w2 is fixed within the epoch, so it multiplies the first-layer
        # sums of (settings row x dpred) against h(1-h) once, after the last tile.
        grad_w1 = np.zeros((n_sensors, N_SETTINGS + 1, h))
        grad_w2 = np.zeros((n_sensors, 1, h))
        grad_b2 = np.zeros_like(b2)
        with np.errstate(over="ignore", invalid="ignore"):  # checked once per epoch
            for lo in range(0, len(distinct), tile):
                rows = slice(lo, lo + tile)
                xt = x[:, rows]
                t = xt.shape[1]
                hidden = hidden_buf[:t]
                np.matmul(xt.T, neg_w1b, out=hidden)
                np.minimum(hidden, 700.0, out=hidden)
                np.exp(hidden, out=hidden)
                hidden += 1.0
                np.reciprocal(hidden, out=hidden)  # logistic activations
                hidden_s = hidden.reshape(-1, n_sensors, h).transpose(1, 0, 2)
                dpred = (hidden_s @ w2[:, :, None])[:, :, 0]  # (S, t)
                dpred += b2[:, None]
                dpred *= weight[rows]
                dpred -= target[:, rows]
                grad_b2 += dpred.sum(axis=1)
                grad_w2 += dpred[:, None, :] @ hidden_s
                slope = slope_buf[:t]
                np.subtract(1.0, hidden, out=slope)
                slope *= hidden  # h(1 - h)
                slope_s = slope.reshape(-1, n_sensors, h).transpose(1, 0, 2)
                outer = np.multiply(xt, dpred[:, None, :], out=outer_buf[:, :, :t])
                grad_w1 += outer @ slope_s
            grad_w1 *= w2[:, None, :]

            neg_w1b += lr * grad_w1.transpose(1, 0, 2).reshape(N_SETTINGS + 1, -1)
            w2 -= lr * grad_w2[:, 0]
            b2 -= lr * grad_b2
        # A non-finite gradient makes a parameter non-finite in the same epoch.
        blocks = ("w1", neg_w1b[:N_SETTINGS]), ("b1", neg_w1b[N_SETTINGS]), ("w2", w2), ("b2", b2)
        for name, block in blocks:
            if not np.isfinite(block).all():
                raise TrainingError(
                    f"condition fit diverged at epoch {epoch}: non-finite parameter block {name}"
                )

    w1 = -neg_w1b[:N_SETTINGS].reshape(N_SETTINGS, n_sensors, h).transpose(1, 0, 2)
    b1 = -neg_w1b[N_SETTINGS].reshape(n_sensors, h)

    return ConditionModel(
        setting_min=setting_min,
        setting_max=setting_max,
        target_mean=target_mean,
        target_scale=target_scale,
        w1=w1,
        b1=b1,
        w2=w2,
        b2=b2,
        config=cfg,
    )


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
            " a diverged condition fit or constant readings leave nothing to model"
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
