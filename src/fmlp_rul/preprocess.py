"""Sensor preprocessing: operating-condition removal, min-max scaling, and
fixed-length windowing with piece-wise RUL labels.

The pipeline order is: condition removal -> min-max -> windowing. Min-max
statistics are computed on full post-removal trajectories, not on windows.
"""

from dataclasses import dataclass

import numpy as np

from .cmapss import N_SENSORS, N_SETTINGS, DataSubset, EngineTrajectory
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
        out = (hidden.reshape(-1, n_sensors, h) * self.w2).sum(axis=2) + self.b2
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
    # A ones column carries the hidden bias through the first-layer products.
    x = np.column_stack([(distinct - setting_min) / span, np.ones(len(distinct))])
    # The squared-error gradient at a distinct row's prediction p is
    # weight * p - target, with its row count and target sum scaled by 2/n.
    weight = counts[:, None] * (2.0 / n)
    target = np.zeros((len(distinct), n_sensors))
    np.add.at(target, group.reshape(-1), y)
    target *= 2.0 / n

    h = cfg.hidden_units
    rng = seeded_rng(cfg.seed)
    w1 = rng.uniform(-0.5, 0.5, size=(n_sensors, N_SETTINGS, h))
    w2 = rng.uniform(-0.5, 0.5, size=(n_sensors, h))
    b2 = np.zeros(n_sensors)

    # All sensors train at once: the first layer is one (settings+1,
    # sensor*hidden) matrix, the second runs block-wise on the (rows,
    # sensor, hidden) view. Each epoch streams the rows through tiles small
    # enough for the hidden-layer buffers to stay in cache.
    lr = cfg.learning_rate
    w1b = np.zeros((N_SETTINGS + 1, n_sensors * h))
    w1b[:N_SETTINGS] = w1.transpose(1, 0, 2).reshape(N_SETTINGS, -1)
    tile = max(1, _TILE_BYTES // (8 * n_sensors * h))
    hidden_buf = np.empty((tile, n_sensors * h))
    dhid_buf = np.empty_like(hidden_buf)
    for _ in range(cfg.epochs):
        grad_w1b = np.zeros_like(w1b)
        grad_w2 = np.zeros_like(w2)
        grad_b2 = np.zeros_like(b2)
        for lo in range(0, len(x), tile):
            rows = slice(lo, lo + tile)
            xt = x[rows]
            hidden = hidden_buf[: len(xt)]
            np.matmul(xt, w1b, out=hidden)
            np.clip(np.negative(hidden, out=hidden), None, 700.0, out=hidden)
            np.exp(hidden, out=hidden)
            hidden += 1.0
            np.reciprocal(hidden, out=hidden)  # logistic activations
            hidden3 = hidden.reshape(-1, n_sensors, h)

            dpred = np.einsum("nsh,sh->ns", hidden3, w2)
            dpred += b2
            dpred *= weight[rows]
            dpred -= target[rows]
            grad_b2 += dpred.sum(axis=0)

            dhid = dhid_buf[: len(hidden)]
            dhid3 = dhid.reshape(hidden3.shape)
            np.einsum("nsh,ns->nsh", hidden3, dpred, out=dhid3)
            grad_w2 += dhid3.sum(axis=0)
            np.subtract(1.0, hidden, out=hidden)  # activations become 1 - h
            dhid *= hidden
            dhid3 *= w2
            grad_w1b += xt.T @ dhid

        w1b -= lr * grad_w1b
        w2 -= lr * grad_w2
        b2 -= lr * grad_b2

    w1 = w1b[:N_SETTINGS].reshape(N_SETTINGS, n_sensors, h).transpose(1, 0, 2).copy()
    b1 = w1b[N_SETTINGS].reshape(n_sensors, h).copy()

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
    traj: EngineTrajectory, model: ConditionModel
) -> EngineTrajectory:
    """Replace sensors by raw minus the regressor's would-be value."""
    if traj.scaled:
        raise ValueError("condition removal must precede min-max scaling")
    residual = traj.sensors - model.predict(traj.op_settings)
    return EngineTrajectory(
        unit_id=traj.unit_id,
        cycles=traj.cycles.copy(),
        op_settings=traj.op_settings.copy(),
        sensors=residual,
    )


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


def fit_minmax(trajectories: list[EngineTrajectory]) -> MinMaxScaler:
    """Compute per-sensor min/max over every cycle of every trajectory."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    stacked = np.concatenate([t.sensors for t in trajectories], axis=0)
    return MinMaxScaler(minimum=stacked.min(axis=0), maximum=stacked.max(axis=0))


def apply_minmax(traj: EngineTrajectory, scaler: MinMaxScaler) -> EngineTrajectory:
    """Map each retained sensor through (x - min) / (max - min).

    Values outside the training range pass through unclamped. Excluded
    (constant) sensor columns are zeroed. Trajectories are scaled at most
    once; a second application raises.
    """
    if traj.scaled:
        raise ValueError(f"unit {traj.unit_id} is already min-max scaled")
    scaled = np.zeros_like(traj.sensors)
    scaled[:, scaler.retained] = scaler.scale_retained(traj.sensors)
    return EngineTrajectory(
        unit_id=traj.unit_id,
        cycles=traj.cycles.copy(),
        op_settings=traj.op_settings.copy(),
        sensors=scaled,
        scaled=True,
    )


def linear_rul(c: int, n_instances: int) -> int:
    """Linear label for the c-th of n_instances windows: n_instances - c."""
    if not 1 <= c <= n_instances:
        raise ValueError(f"window index {c} outside 1..{n_instances}")
    return n_instances - c


def piecewise_rul(c: int, n_instances: int, t_cap: int = DEFAULT_RUL_CAP) -> int:
    """Piece-wise label: the linear label capped at t_cap."""
    return min(t_cap, linear_rul(c, n_instances))


@dataclass
class FunctionalInstance:
    """A window of sensor curves on a shared grid, optionally labeled.

    curves is (R_kept, M); engine_ref is (unit_id, window start cycle).
    """

    grid: np.ndarray
    curves: np.ndarray
    label: float | None
    engine_ref: tuple[int, int]

    def __post_init__(self):
        if self.curves.ndim != 2 or self.curves.shape[1] != len(self.grid):
            raise ValueError(
                f"curves {self.curves.shape} do not match grid length {len(self.grid)}"
            )


def _window_grid(window_length: int) -> np.ndarray:
    return np.arange(1, window_length + 1, dtype=np.float64)


def slide_windows(
    traj: EngineTrajectory,
    window_length: int,
    t_cap: int = DEFAULT_RUL_CAP,
    sensor_indices: np.ndarray | None = None,
) -> list[FunctionalInstance]:
    """Cut a training trajectory into every length-M_d window, labeling the
    c-th window with the piece-wise RUL.

    Returns an empty list when the trajectory is shorter than the window.
    ``sensor_indices`` selects the retained sensors (default: all).
    """
    if sensor_indices is None:
        sensor_indices = np.arange(N_SENSORS)
    m = int(window_length)
    n = traj.n_cycles - m + 1
    if n < 1:
        return []
    grid = _window_grid(m)
    kept = traj.sensors[:, sensor_indices]
    out = []
    for c in range(1, n + 1):
        curves = np.ascontiguousarray(kept[c - 1 : c - 1 + m].T)
        out.append(
            FunctionalInstance(
                grid=grid,
                curves=curves,
                label=float(piecewise_rul(c, n, t_cap)),
                engine_ref=(traj.unit_id, c),
            )
        )
    return out


def _last_block(rows: np.ndarray, m: int) -> np.ndarray:
    """The last m rows; fewer rows are left-padded by repeating the first."""
    if len(rows) >= m:
        return rows[len(rows) - m :]
    return np.concatenate([np.repeat(rows[:1], m - len(rows), axis=0), rows], axis=0)


def last_window(
    traj: EngineTrajectory,
    window_length: int,
    sensor_indices: np.ndarray | None = None,
) -> FunctionalInstance:
    """The final M_d cycles of a test trajectory as one unlabeled instance.

    A trajectory shorter than the window is left-padded by repeating its
    earliest observation, keeping the true readings at the latest grid
    positions.
    """
    if sensor_indices is None:
        sensor_indices = np.arange(N_SENSORS)
    m = int(window_length)
    if traj.n_cycles == 0:
        raise ValueError("empty trajectory")
    block = _last_block(traj.sensors[:, sensor_indices], m)
    return FunctionalInstance(
        grid=_window_grid(m),
        curves=np.ascontiguousarray(block.T),
        label=None,
        engine_ref=(traj.unit_id, max(1, traj.n_cycles - m + 1)),
    )


def last_windows(
    trajectories: list[EngineTrajectory],
    window_length: int,
    model: ConditionModel,
    scaler: MinMaxScaler,
) -> list[FunctionalInstance]:
    """One unlabeled last-window instance per raw trajectory, in order, on
    the retained sensors after condition removal and min-max scaling.

    Both transforms act row by row, so only each trajectory's last
    min(n, M_d) rows are transformed, in one batch: the instances equal
    ``last_window`` of each fully transformed trajectory.
    """
    if not trajectories:
        return []
    m = int(window_length)
    counts = [min(t.n_cycles, m) for t in trajectories]
    settings = np.concatenate([t.op_settings[-k:] for t, k in zip(trajectories, counts)])
    sensors = np.concatenate([t.sensors[-k:] for t, k in zip(trajectories, counts)])
    scaled = scaler.scale_retained(sensors - model.predict(settings))
    grid = _window_grid(m)
    return [
        FunctionalInstance(
            grid=grid,
            curves=np.ascontiguousarray(_last_block(rows, m).T),
            label=None,
            engine_ref=(traj.unit_id, max(1, traj.n_cycles - m + 1)),
        )
        for traj, rows in zip(trajectories, np.split(scaled, np.cumsum(counts)[:-1]))
    ]


def transform_trajectory(
    traj: EngineTrajectory, model: ConditionModel, scaler: MinMaxScaler
) -> EngineTrajectory:
    """Condition removal followed by min-max scaling."""
    return apply_minmax(remove_condition_effect(traj, model), scaler)


def fit_preprocessing(
    train: list[EngineTrajectory], cfg: ConditionFitConfig | None = None
) -> tuple[ConditionModel, MinMaxScaler]:
    """Fit the condition regressors, then the min-max scaler on residuals."""
    model = fit_condition_regressors(train, cfg)
    residuals = [remove_condition_effect(t, model) for t in train]
    return model, fit_minmax(residuals)


def training_instances(
    subset: DataSubset,
    model: ConditionModel,
    scaler: MinMaxScaler,
    t_cap: int = DEFAULT_RUL_CAP,
) -> list[FunctionalInstance]:
    """All labeled sliding windows from the subset's training units."""
    out = []
    for traj in subset.train:
        processed = transform_trajectory(traj, model, scaler)
        out.extend(
            slide_windows(processed, subset.window_length, t_cap, scaler.retained)
        )
    return out


def test_instances(
    subset: DataSubset, model: ConditionModel, scaler: MinMaxScaler
) -> list[FunctionalInstance]:
    """One unlabeled last-window instance per test unit, in file order."""
    return last_windows(subset.test, subset.window_length, model, scaler)
