"""Functional multilayer perceptron for RUL estimation.

The first layer holds K functional neurons. Neuron k integrates each
sensor curve against a weight function built on that sensor's
eigenfunctions (coefficients beta), adds a bias, and applies the logistic
function. The layer's real output is the a-weighted sum H of the neuron
activations; H then feeds a small numerical network (one logistic hidden
layer, then a linear unit). Targets are RUL labels divided by
``label_scale`` so the regression lives in [0, 1].

Because the weight functions are linear in beta, the functional layer can
be evaluated either by building each weight curve and integrating it
against the instance, or by precomputing the instance's projection scores
onto the eigenfunctions; both orders of summation agree to rounding.
Training uses the precomputed-score form.
"""

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .cmapss import N_SENSORS, N_SETTINGS, SUBSET_IDS, EngineTrajectory
from .errors import ArtifactError, NumericError, TrainingError, json_block, json_number
from .fpca import EigenBasis, SensorBasis, project
from .numerics import logistic as _logistic
from .numerics import seeded_rng
from .preprocess import (
    DEFAULT_RUL_CAP,
    ConditionFitConfig,
    ConditionModel,
    MinMaxScaler,
    Windows,
    last_windows,
)

ARTIFACT_SCHEMA = "fmlp-artifact/4"

DEFAULT_FUNCTIONAL_NEURONS = 4
HIDDEN_WIDTH = 2

# The parameter blocks in their order in FmlpModel.params: the functional
# layer (a, b, beta), the logistic hidden layer (w1, b1), the linear output
# unit (w2, b2).
BLOCKS = ("a", "b", "beta", "w1", "b1", "w2", "b2")


def _block_shapes(k: int, d: int) -> dict[str, tuple[int, ...]]:
    """Each block's shape for K functional neurons and D basis components."""
    h = HIDDEN_WIDTH
    return dict(zip(BLOCKS, [(k,), (k,), (k, d), (h, 1), (h,), (1, h), (1,)]))


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 300
    batch_size: int = 64
    seed: int = 0
    init_scale: float = 0.5
    patience: int = 25
    val_fraction: float = 0.1

    def __post_init__(self):
        for name in ("learning_rate", "epochs", "batch_size", "init_scale", "patience"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not math.isfinite(2 * self.init_scale):  # uniform(-s, s) needs a finite span
            raise ValueError(f"init_scale must leave 2 * init_scale finite, got {self.init_scale}")
        if not 0.0 <= self.val_fraction <= 0.5:
            raise ValueError(f"val_fraction must be in [0, 0.5], got {self.val_fraction}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass
class FmlpModel:
    """The trained network and the eigenbasis its functional layer reads.

    Every network parameter lives in one float64 vector, ``params``; each
    block in ``BLOCKS`` is a view into it.
    """

    a: np.ndarray  # (K,) functional-neuron output weights
    b: np.ndarray  # (K,) functional-neuron biases
    beta: np.ndarray  # (K, D) weight-function coefficients, sensor-major
    w1: np.ndarray  # (2, 1) hidden-layer weights
    b1: np.ndarray  # (2,) hidden-layer biases
    w2: np.ndarray  # (1, 2) output weights
    b2: np.ndarray  # (1,) output bias
    basis: EigenBasis
    label_scale: float = float(DEFAULT_RUL_CAP)
    train_config: TrainConfig | None = None
    params: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        for name, shape in _block_shapes(self.n_functional, self.basis.total_components).items():
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(
                    f"block {name} has shape {np.shape(getattr(self, name))}, expected {shape}"
                )
        arrays = [np.ravel(getattr(self, name)) for name in BLOCKS]
        self.params = np.concatenate(arrays, dtype=np.float64)
        for name, view in self.blocks(self.params):
            setattr(self, name, view)

    def blocks(self, vector: np.ndarray) -> list[tuple[str, np.ndarray]]:
        """(name, view) per parameter block of a vector laid out like ``params``."""
        views, start = [], 0
        for name, shape in _block_shapes(self.n_functional, self.basis.total_components).items():
            size = math.prod(shape)
            views.append((name, vector[start : start + size].reshape(shape)))
            start += size
        return views

    @property
    def n_functional(self) -> int:
        return len(self.a)

    def weight_curve(self, k: int, r: int) -> np.ndarray:
        """Weight function of neuron k for sensor position r on the grid."""
        coefficients = self.beta[k, self.basis.component_slices()[r]]
        return coefficients @ self.basis.sensors[r].components

    def functional_layer(self, windows: Windows) -> np.ndarray:
        """Logistic activations of the K functional neurons: (N, K)."""
        return self._checked_forward(windows)[0]

    def predict_many(self, windows: Windows) -> np.ndarray:
        """Clamped RUL estimates in cycles, one per window."""
        return np.maximum(0.0, self._checked_forward(windows)[1])

    @np.errstate(over="ignore", invalid="ignore")  # checked below
    def _checked_forward(self, windows: Windows) -> tuple[np.ndarray, np.ndarray]:
        """The functional activations (N, K) and unclamped estimates (N,). Raises
        NumericError if H or an estimate is not finite (huge but finite weights)."""
        z, h, _, out = self._forward(project(self.basis, windows))
        estimates = out * self.label_scale
        if not (np.isfinite(h).all() and np.isfinite(estimates).all()):
            raise NumericError("network output is not finite: weights too large for these windows")
        return z, estimates

    def _forward(self, scores: np.ndarray) -> tuple[np.ndarray, ...]:
        """The functional activations z (N, K), their sum H (N, 1), the
        hidden activations (N, 2) and the output (N,)."""
        z = _logistic(scores @ self.beta.T + self.b)
        h = (z @ self.a)[:, None]
        hidden = _logistic(h @ self.w1.T + self.b1)
        return z, h, hidden, (hidden @ self.w2.T + self.b2)[:, 0]

    def copy(self) -> "FmlpModel":
        return dataclasses.replace(self)  # __post_init__ packs a new vector


@dataclass
class Pipeline:
    """The fitted chain for raw engine histories: condition removal, min-max
    scaling, the last window, FPCA projection, then the network."""

    condition_model: ConditionModel
    scaler: MinMaxScaler
    network: FmlpModel
    subset_id: str

    @property
    def window_length(self) -> int:
        return len(self.network.basis.grid)

    def predict(self, trajectories: list[EngineTrajectory]) -> np.ndarray:
        """Clamped RUL estimates in cycles, one per trajectory, in order."""
        if not trajectories:
            return np.zeros(0)
        windows = last_windows(
            trajectories, self.window_length, self.condition_model, self.scaler
        )
        return self.network.predict_many(windows)


def _scaled_targets(model: FmlpModel, windows: Windows) -> np.ndarray:
    if windows.labels is None:
        raise ValueError("windows have no labels")
    return windows.labels / model.label_scale


def loss(model: FmlpModel, windows: Windows) -> float:
    """Mean squared error over a labeled batch, in scaled label units."""
    scores = project(model.basis, windows)
    targets = _scaled_targets(model, windows)
    return _loss_scores(model, scores, targets)


@np.errstate(over="ignore", invalid="ignore")  # divergence is checked by callers
def _loss_scores(model: FmlpModel, scores: np.ndarray, targets: np.ndarray) -> float:
    residual = model._forward(scores)[3] - targets
    return float(np.mean(residual**2))


def gradients(model: FmlpModel, windows: Windows) -> np.ndarray:
    """Analytic gradient of the batch MSE, laid out like ``model.params``."""
    scores = project(model.basis, windows)
    targets = _scaled_targets(model, windows)
    grad = np.empty_like(model.params)
    _gradient_into(model, scores, targets, [view for _, view in model.blocks(grad)])
    return grad


def _gradient_into(
    model: FmlpModel, scores: np.ndarray, targets: np.ndarray, grad_blocks: list[np.ndarray]
) -> None:
    """Write the batch-MSE gradient into ``grad_blocks``, the views of a
    vector laid out like ``model.params``. Finiteness is the caller's check."""
    g_a, g_b, g_beta, g_w1, g_b1, g_w2, g_b2 = grad_blocks
    z, h, hidden, out = model._forward(scores)
    dout = out - targets
    dout *= 2.0 / scores.shape[0]
    dout = dout[:, None]  # dJ/d(output)
    np.matmul(dout.T, hidden, out=g_w2)
    np.add.reduce(dout, axis=0, out=g_b2)
    dhidden = (dout @ model.w2) * hidden * (1.0 - hidden)  # dJ/d(hidden pre-activation)
    np.matmul(dhidden.T, h, out=g_w1)
    np.add.reduce(dhidden, axis=0, out=g_b1)

    dh = (dhidden @ model.w1)[:, 0]  # dJ/dH
    np.matmul(z.T, dh, out=g_a)
    dpre = dh[:, None] * model.a  # dJ/dz, then dJ/d(pre-activation)
    dpre *= z
    dpre *= 1.0 - z
    np.matmul(dpre.T, scores, out=g_beta)
    np.add.reduce(dpre, axis=0, out=g_b)


def init_model(
    basis: EigenBasis,
    rng: np.random.Generator,
    n_functional: int = DEFAULT_FUNCTIONAL_NEURONS,
    init_scale: float = 0.5,
    label_scale: float = float(DEFAULT_RUL_CAP),
) -> FmlpModel:
    """Seeded uniform(-init_scale, init_scale) weights, zero biases."""
    d = basis.total_components
    a = rng.uniform(-init_scale, init_scale, size=n_functional)
    beta = rng.uniform(-init_scale, init_scale, size=(n_functional, d))
    w1 = rng.uniform(-init_scale, init_scale, size=(HIDDEN_WIDTH, 1))
    w2 = rng.uniform(-init_scale, init_scale, size=(1, HIDDEN_WIDTH))
    return FmlpModel(
        a=a,
        b=np.zeros(n_functional),
        beta=beta,
        w1=w1,
        b1=np.zeros(HIDDEN_WIDTH),
        w2=w2,
        b2=np.zeros(1),
        basis=basis,
        label_scale=label_scale,
    )


@dataclass
class TraceRow:
    epoch: int
    train_mse: float
    val_mse: float | None


@dataclass
class TrainResult:
    model: FmlpModel
    trace: list[TraceRow]


def train(
    instances: Windows,
    basis: EigenBasis,
    cfg: TrainConfig | None = None,
    label_scale: float = float(DEFAULT_RUL_CAP),
) -> TrainResult:
    """Mini-batch gradient descent on the MSE of scaled RUL labels.

    Projection scores are computed once and reused every epoch. When the
    validation fraction is positive, the returned model is the snapshot
    with the best validation MSE and training stops after ``patience``
    epochs without improvement. Raises TrainingError, checked once per
    epoch, if a parameter or the loss stops being finite.
    """
    if not instances:
        raise ValueError("no training instances")
    cfg = cfg or TrainConfig()
    rng = seeded_rng(cfg.seed)
    model = init_model(basis, rng, init_scale=cfg.init_scale, label_scale=label_scale)
    model.train_config = cfg

    scores = project(basis, instances)
    targets = _scaled_targets(model, instances)
    n = len(instances)

    perm = rng.permutation(n)
    n_val = int(round(cfg.val_fraction * n))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation split leaves no training data")

    # Gathered once; each epoch's shuffled rows are taken into fixed buffers.
    train_scores, train_targets = scores[train_idx], targets[train_idx]
    val_scores, val_targets = scores[val_idx], targets[val_idx]
    epoch_scores, epoch_targets = np.empty_like(train_scores), np.empty_like(train_targets)
    params = model.params
    grad = np.empty_like(params)
    grad_blocks = [view for _, view in model.blocks(grad)]
    best = None
    best_val = np.inf
    stale = 0
    trace: list[TraceRow] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(train_idx.size)
        np.take(train_scores, order, axis=0, out=epoch_scores)
        np.take(train_targets, order, axis=0, out=epoch_targets)
        with np.errstate(over="ignore", invalid="ignore"):  # checked once per epoch
            for start in range(0, order.size, cfg.batch_size):
                batch = slice(start, start + cfg.batch_size)
                _gradient_into(model, epoch_scores[batch], epoch_targets[batch], grad_blocks)
                grad *= cfg.learning_rate
                params -= grad
        # A non-finite gradient makes a parameter non-finite in the same step.
        if not np.isfinite(params).all():
            name = next(name for name, v in model.blocks(params) if not np.isfinite(v).all())
            raise TrainingError(
                f"training diverged at epoch {epoch}: non-finite parameter block {name}"
            )

        train_mse = _loss_scores(model, train_scores, train_targets)
        if not np.isfinite(train_mse):
            raise TrainingError(f"training loss diverged at epoch {epoch}")
        val_mse = None
        if n_val:
            val_mse = _loss_scores(model, val_scores, val_targets)
            if not np.isfinite(val_mse):
                raise TrainingError(f"validation loss diverged at epoch {epoch}")
        trace.append(TraceRow(epoch=epoch, train_mse=train_mse, val_mse=val_mse))

        if n_val:
            if val_mse < best_val:
                best_val = val_mse
                best = params.copy()
                stale = 0
            else:
                stale += 1
                if stale > cfg.patience:
                    break

    if best is not None:
        params[:] = best
    return TrainResult(model=model, trace=trace)


# ---------------------------------------------------------------------------
# Artifact serialization ("fmlp-artifact/4"): one JSON document holding the
# network, the eigenbasis and the preprocessing state, each value once.


def _array(x) -> list:
    return np.asarray(x, dtype=np.float64).tolist()


def _condition_shapes(h: int) -> dict[str, tuple[int, ...]]:
    """Each array of a ConditionModel with H hidden units, in artifact order,
    with its shape."""
    s = N_SENSORS
    names = ("setting_min", "setting_max", "target_mean", "target_scale", "w1", "b1", "w2", "b2")
    shapes = [(N_SETTINGS,)] * 2 + [(s,)] * 2 + [(N_SETTINGS, h), (h,), (s, h), (s,)]
    return dict(zip(names, shapes))


def model_to_doc(model: FmlpModel) -> dict:
    """The network as a JSON-ready document; ``pipeline_to_doc`` adds the
    pipeline keys."""
    return {
        "schema": ARTIFACT_SCHEMA,
        "label_scale": model.label_scale,
        "train_config": (
            dataclasses.asdict(model.train_config) if model.train_config else None
        ),
        "basis": {
            "fve_cutoff": model.basis.fve_cutoff,
            "component_cap": model.basis.component_cap,
            "sensors": [
                {
                    "sensor_id": s.sensor_id,
                    "mean": _array(s.mean),
                    "eigenvalues": _array(s.eigenvalues),
                    "components": _array(s.components),
                }
                for s in model.basis.sensors
            ],
        },
        "network": {name: _array(getattr(model, name)) for name in BLOCKS},
    }


def pipeline_to_doc(pipeline: Pipeline) -> dict:
    """The artifact document: the network's, with the pipeline keys added."""
    cm, scaler = pipeline.condition_model, pipeline.scaler
    condition_doc = {
        field: _array(getattr(cm, field)) for field in _condition_shapes(cm.config.hidden_units)
    }
    condition_doc["config"] = dataclasses.asdict(cm.config)
    network_doc = model_to_doc(pipeline.network)
    return {
        "schema": network_doc.pop("schema"),
        "subset_id": pipeline.subset_id,
        "window_length": pipeline.window_length,
        "condition_model": condition_doc,
        "scaler": {"minimum": _array(scaler.minimum), "maximum": _array(scaler.maximum)},
        **network_doc,
    }


def pipeline_from_doc(doc: dict) -> Pipeline:
    """Rebuild a pipeline from its artifact document, checking each value
    where it is read. An artifact without preprocessing state is rejected."""
    try:
        if doc.get("schema") != ARTIFACT_SCHEMA:
            raise ArtifactError(
                f"unsupported artifact schema {doc.get('schema')!r},"
                f" expected {ARTIFACT_SCHEMA!r}"
            )
        for key in ("condition_model", "scaler"):
            if doc.get(key) is None:
                raise ArtifactError(
                    f"artifact block {key} is null or missing: no preprocessing state"
                )
        if doc["subset_id"] not in SUBSET_IDS:
            raise ArtifactError(
                f"artifact field subset_id is {doc['subset_id']!r}, expected one of {SUBSET_IDS}"
            )
        m = _field(doc["window_length"], int, "window_length")
        if not m > 0:
            raise ArtifactError(f"artifact field window_length is {m}, expected > 0")
        cm_doc, scaler_doc = doc["condition_model"], doc["scaler"]
        cm_config = _config(ConditionFitConfig, cm_doc["config"], "condition_model.config")
        shapes = _condition_shapes(cm_config.hidden_units)
        arrays = {k: json_block(cm_doc[k], v, f"condition_model.{k}") for k, v in shapes.items()}
        condition_model = ConditionModel(**arrays, config=cm_config)
        scaler = MinMaxScaler(*(
            json_block(scaler_doc[k], (N_SENSORS,), f"scaler.{k}") for k in ("minimum", "maximum")
        ))
        basis_doc, sensors, m_from = doc["basis"], [], f" for window_length {m}"
        for i, s in enumerate(basis_doc["sensors"]):
            name, p = f"basis.sensors[{i}]", len(s["components"])
            curves = {
                key: json_block(s[key], shape, f"{name}.{key}", m_from)
                for key, shape in (("mean", (m,)), ("eigenvalues", (m,)), ("components", (p, m)))
            }
            sensors.append(SensorBasis(_field(s["sensor_id"], int, f"{name}.sensor_id"), **curves))
        if not sensors:  # nothing would bound M
            raise ArtifactError("artifact basis covers no sensors")
        ids = [sb.sensor_id for sb in sensors]
        if ids != scaler.sensor_ids:
            raise ArtifactError(
                f"artifact basis covers sensors {ids}, but the scaler retains {scaler.sensor_ids}"
            )
        basis = EigenBasis(
            grid=np.arange(1.0, m + 1),  # the grid windowing uses
            sensors=sensors,
            fve_cutoff=_field(basis_doc["fve_cutoff"], float, "basis.fve_cutoff"),
            component_cap=_field(basis_doc["component_cap"], int, "basis.component_cap"),
        )
        net_doc = doc["network"]
        params = {
            name: json_block(net_doc[name], shape, f"network.{name}")
            for name, shape in _block_shapes(len(net_doc["a"]), basis.total_components).items()
        }
        label_scale = _field(doc["label_scale"], float, "label_scale")
        if not label_scale > 0:
            raise ArtifactError(f"artifact field label_scale is {label_scale}, expected > 0")
        cfg_doc = doc["train_config"]
        train_config = None if cfg_doc is None else _config(TrainConfig, cfg_doc, "train_config")
        network = FmlpModel(
            **params, basis=basis, label_scale=label_scale, train_config=train_config
        )
        return Pipeline(condition_model, scaler, network, doc["subset_id"])
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed model artifact: {exc}") from exc


def _field(value, kind: type, name: str):
    return json_number(value, kind, f"artifact field {name}", ArtifactError)


def _config(cls, doc: dict, name: str):
    """A stage config from its artifact block: exactly the dataclass's
    fields, each with its default's type."""
    kinds = {f.name: type(f.default) for f in dataclasses.fields(cls)}
    if doc.keys() != kinds.keys():
        key = min(doc.keys() ^ kinds.keys())
        state = "missing" if key in kinds else "unknown"
        raise ArtifactError(f"artifact field {name}.{key} is {state}")
    return cls(**{key: _field(doc[key], kind, f"{name}.{key}") for key, kind in kinds.items()})


def save_model(pipeline: Pipeline, stream: TextIO) -> None:
    """Write the pipeline artifact as JSON (floats round-trip exactly)."""
    json.dump(pipeline_to_doc(pipeline), stream, indent=1)


def load_model(stream: TextIO) -> Pipeline:
    """Read a pipeline artifact; raises ArtifactError on damage, mismatch or
    missing preprocessing state."""
    try:
        doc = json.load(stream)
    except UnicodeDecodeError:
        raise  # read_file names the line
    except ValueError as exc:  # not JSON, or an integer of over 4300 digits
        raise ArtifactError(f"artifact is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ArtifactError("artifact root must be a JSON object")
    return pipeline_from_doc(doc)
