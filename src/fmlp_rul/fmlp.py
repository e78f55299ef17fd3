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
from .errors import ArtifactError, TrainingError
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

ARTIFACT_SCHEMA = "fmlp-artifact/2"

ACT_LOGISTIC = "logistic"
ACT_LINEAR = "linear"

DEFAULT_FUNCTIONAL_NEURONS = 4
HIDDEN_WIDTH = 2


@dataclass
class NumericalLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    def __post_init__(self):
        if self.activation not in (ACT_LOGISTIC, ACT_LINEAR):
            raise ValueError(f"unknown activation {self.activation!r}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weights.T + self.bias
        return _logistic(out) if self.activation == ACT_LOGISTIC else out


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
        if not 0.0 <= self.val_fraction <= 0.5:
            raise ValueError(f"val_fraction must be in [0, 0.5], got {self.val_fraction}")


@dataclass
class FmlpModel:
    """The trained network and the eigenbasis its functional layer reads.

    Every network parameter lives in one float64 vector, ``params``: ``a``,
    ``b``, ``beta`` and each layer's ``weights`` and ``bias`` are views into
    it, in the order ``blocks`` lists them.
    """

    a: np.ndarray  # (K,) functional-neuron output weights
    b: np.ndarray  # (K,) functional-neuron biases
    beta: np.ndarray  # (K, D) weight-function coefficients, sensor-major
    layers: list[NumericalLayer]
    basis: EigenBasis
    label_scale: float = float(DEFAULT_RUL_CAP)
    train_config: TrainConfig | None = None
    params: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        k = len(self.a)
        if self.b.shape != (k,) or self.beta.shape != (k, self.basis.total_components):
            raise ValueError("parameter shapes do not match K and the basis")
        last = self.layers[-1] if self.layers else None
        if last is None or last.activation != ACT_LINEAR or last.weights.shape[:1] != (1,):
            raise ValueError("numerical_layers must end in a linear layer of width 1")
        arrays = [self.a, self.b, self.beta]
        arrays += [x for layer in self.layers for x in (layer.weights, layer.bias)]
        self.params = np.concatenate([np.ravel(x) for x in arrays], dtype=np.float64)
        views = [view for _, view in self.blocks(self.params)]
        self.a, self.b, self.beta = views[:3]
        self.layers = [
            NumericalLayer(weights, bias, layer.activation)
            for layer, weights, bias in zip(self.layers, views[3::2], views[4::2])
        ]

    def blocks(self, vector: np.ndarray) -> list[tuple[str, np.ndarray]]:
        """(name, view) per parameter block of a vector laid out like ``params``."""
        shapes = [("a", self.a.shape), ("b", self.b.shape), ("beta", self.beta.shape)]
        for i, layer in enumerate(self.layers):
            shapes.append((f"layers[{i}].weights", layer.weights.shape))
            shapes.append((f"layers[{i}].bias", layer.bias.shape))
        views, start = [], 0
        for name, shape in shapes:
            size = math.prod(shape)
            views.append((name, vector[start : start + size].reshape(shape)))
            start += size
        return views

    @property
    def n_functional(self) -> int:
        return len(self.a)

    @property
    def seed(self) -> int | None:
        return self.train_config.seed if self.train_config else None

    def weight_curve(self, k: int, r: int) -> np.ndarray:
        """Weight function of neuron k for sensor position r on the grid."""
        coefficients = self.beta[k, self.basis.component_slices()[r]]
        return coefficients @ self.basis.sensors[r].components

    def functional_layer(self, windows: Windows) -> np.ndarray:
        """Logistic activations of the K functional neurons: (N, K)."""
        return _logistic(project(self.basis, windows) @ self.beta.T + self.b)

    def predict_many(self, windows: Windows) -> np.ndarray:
        """Clamped RUL estimates in cycles, one per window."""
        _, xs = self._forward(project(self.basis, windows))
        return np.maximum(0.0, xs[-1][:, 0] * self.label_scale)

    def _forward(self, scores: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The functional activations z (N, K), and H (N, 1) followed by
        each numerical layer's output."""
        z = _logistic(scores @ self.beta.T + self.b)
        xs = [(z @ self.a)[:, None]]
        for layer in self.layers:
            xs.append(layer.apply(xs[-1]))
        return z, xs

    def copy(self) -> "FmlpModel":
        return dataclasses.replace(self)  # __post_init__ packs a new vector


@dataclass
class Pipeline:
    """The fitted chain for raw engine histories: condition removal, min-max
    scaling, the last window, FPCA projection, then the network."""

    condition_model: ConditionModel
    scaler: MinMaxScaler
    network: FmlpModel
    subset_id: str | None

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
    residual = model._forward(scores)[1][-1][:, 0] - targets
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
    z, xs = model._forward(scores)
    grad = xs[-1][:, 0] - targets
    grad *= 2.0 / scores.shape[0]
    grad = grad[:, None]  # dJ/d(final output)
    for i in range(len(model.layers) - 1, -1, -1):
        layer, out = model.layers[i], xs[i + 1]
        if layer.activation == ACT_LOGISTIC:
            grad = grad * out * (1.0 - out)
        np.matmul(grad.T, xs[i], out=grad_blocks[3 + 2 * i])
        np.add.reduce(grad, axis=0, out=grad_blocks[4 + 2 * i])
        grad = grad @ layer.weights  # (N, in)

    dh = grad[:, 0]  # dJ/dH
    g_a, g_b, g_beta = grad_blocks[:3]
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
    hidden = NumericalLayer(
        weights=rng.uniform(-init_scale, init_scale, size=(HIDDEN_WIDTH, 1)),
        bias=np.zeros(HIDDEN_WIDTH),
        activation=ACT_LOGISTIC,
    )
    out = NumericalLayer(
        weights=rng.uniform(-init_scale, init_scale, size=(1, HIDDEN_WIDTH)),
        bias=np.zeros(1),
        activation=ACT_LINEAR,
    )
    return FmlpModel(
        a=a,
        b=np.zeros(n_functional),
        beta=beta,
        layers=[hidden, out],
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
# Artifact serialization ("fmlp-artifact/2"): a single JSON document holding
# the network, the eigenbasis, and the preprocessing artifacts.


def _array(x) -> list:
    return np.asarray(x, dtype=np.float64).tolist()


# The array fields of a ConditionModel, in artifact order.
_CONDITION_ARRAYS = (
    "setting_min", "setting_max", "target_mean", "target_scale", "w1", "b1", "w2", "b2"
)


def model_to_doc(model: FmlpModel) -> dict:
    """The network as a JSON-ready document, with the pipeline keys null;
    ``pipeline_to_doc`` fills them in place."""
    return {
        "schema": ARTIFACT_SCHEMA,
        "subset_id": None,
        "window_length": None,
        "seed": model.seed,
        "label_scale": model.label_scale,
        "train_config": (
            dataclasses.asdict(model.train_config) if model.train_config else None
        ),
        "condition_model": None,
        "scaler": None,
        "basis": {
            "grid": _array(model.basis.grid),
            "fve_cutoff": model.basis.fve_cutoff,
            "component_cap": model.basis.component_cap,
            "sensors": [
                {
                    "sensor_id": s.sensor_id,
                    "mean": _array(s.mean),
                    "eigenvalues": _array(s.eigenvalues),
                    "components": _array(s.components),
                    "num_components": s.num_components,
                }
                for s in model.basis.sensors
            ],
        },
        "functional_layer": {
            "a": _array(model.a),
            "b": _array(model.b),
            "beta": _array(model.beta),
        },
        "numerical_layers": [
            {
                "weights": _array(l.weights),
                "bias": _array(l.bias),
                "activation": l.activation,
            }
            for l in model.layers
        ],
    }


def pipeline_to_doc(pipeline: Pipeline) -> dict:
    """The artifact document: the network's, with the pipeline keys filled."""
    cm, scaler = pipeline.condition_model, pipeline.scaler
    condition_doc = {field: _array(getattr(cm, field)) for field in _CONDITION_ARRAYS}
    condition_doc["config"] = dataclasses.asdict(cm.config)
    doc = model_to_doc(pipeline.network)
    doc.update(
        subset_id=pipeline.subset_id,
        window_length=pipeline.window_length,
        condition_model=condition_doc,
        scaler={"minimum": _array(scaler.minimum), "maximum": _array(scaler.maximum)},
    )
    return doc


def pipeline_from_doc(doc: dict) -> Pipeline:
    """Rebuild a pipeline from its artifact document. An artifact without
    preprocessing state, such as a bare network's, is rejected."""
    try:
        if doc.get("schema") != ARTIFACT_SCHEMA:
            raise ArtifactError(
                f"unsupported artifact schema {doc.get('schema')!r},"
                f" expected {ARTIFACT_SCHEMA!r}"
            )
        for key in ("condition_model", "scaler"):
            if doc[key] is None:
                raise ArtifactError(f"artifact block {key} is null: no preprocessing state")
        if doc["subset_id"] is not None and doc["subset_id"] not in SUBSET_IDS:
            raise ArtifactError(
                f"artifact field subset_id is {doc['subset_id']!r},"
                f" expected null or one of {SUBSET_IDS}"
            )
        basis_doc = doc["basis"]
        basis = EigenBasis(
            grid=np.array(basis_doc["grid"]),
            sensors=[
                SensorBasis(
                    sensor_id=_scalar(s["sensor_id"], int, f"basis.sensors[{i}].sensor_id"),
                    mean=np.array(s["mean"]),
                    eigenvalues=np.array(s["eigenvalues"]),
                    components=np.array(s["components"]),
                )
                for i, s in enumerate(basis_doc["sensors"])
            ],
            fve_cutoff=_scalar(basis_doc["fve_cutoff"], float, "basis.fve_cutoff"),
            component_cap=_scalar(basis_doc["component_cap"], int, "basis.component_cap"),
        )
        func, cfg_doc = doc["functional_layer"], doc["train_config"]
        train_config = None if cfg_doc is None else _config(TrainConfig, cfg_doc, "train_config")
        network = FmlpModel(
            a=np.array(func["a"]),
            b=np.array(func["b"]),
            beta=np.array(func["beta"]),
            layers=[
                NumericalLayer(
                    weights=np.array(l["weights"]),
                    bias=np.array(l["bias"]),
                    activation=l["activation"],
                )
                for l in doc["numerical_layers"]
            ],
            basis=basis,
            label_scale=_scalar(doc["label_scale"], float, "label_scale"),
            train_config=train_config,
        )
        cm_doc, scaler_doc = doc["condition_model"], doc["scaler"]
        pipeline = Pipeline(
            condition_model=ConditionModel(
                **{field: np.array(cm_doc[field]) for field in _CONDITION_ARRAYS},
                config=_config(ConditionFitConfig, cm_doc["config"], "condition_model.config"),
            ),
            scaler=MinMaxScaler(
                minimum=np.array(scaler_doc["minimum"]),
                maximum=np.array(scaler_doc["maximum"]),
            ),
            network=network,
            subset_id=doc["subset_id"],
        )
        _check_blocks(pipeline)
        # The document repeats values the pipeline derives; each copy must agree.
        copies = {
            "window_length": (doc["window_length"], len(basis.grid), "the basis grid length"),
            "seed": (doc["seed"], network.seed, "train_config.seed"),
        }
        for i, (s, sb) in enumerate(zip(basis_doc["sensors"], basis.sensors)):
            copies[f"basis.sensors[{i}].num_components"] = (
                s["num_components"], sb.num_components, "its count of components"
            )
        for name, (stored, derived, source) in copies.items():
            if stored != derived or type(stored) is not type(derived):
                raise ArtifactError(
                    f"artifact {name} {stored!r} does not match {source} {derived!r}"
                )
        return pipeline
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed model artifact: {exc}") from exc


def _scalar(value, kind: type, name: str):
    """``value`` as ``kind``. An int must be a JSON integer and a float any
    JSON number; a bool or a string is neither."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        expected = "an integer" if kind is int else "a number"
        raise ArtifactError(f"artifact field {name} is {value!r}, expected {expected}")
    return kind(value)


def _config(cls, doc: dict, name: str):
    """A stage config from its artifact block; each value has its default's type."""
    types = {f.name: type(f.default) for f in dataclasses.fields(cls)}
    return cls(**{key: _scalar(v, types[key], f"{name}.{key}") for key, v in doc.items()})


def _check_blocks(pipeline: Pipeline) -> None:
    """Every numeric block of a loaded artifact is finite and has the shape
    the other blocks imply; ArtifactError names the first that is not."""
    network, cm, scaler = pipeline.network, pipeline.condition_model, pipeline.scaler
    basis, k = network.basis, network.n_functional
    m, n_s, h = len(basis.grid), N_SENSORS, cm.config.hidden_units
    blocks = {"label_scale": (network.label_scale, ()), "basis.grid": (basis.grid, (m,))}
    shapes = {"a": (k,), "b": (k,), "beta": (k, basis.total_components)}
    for name, shape in shapes.items():
        blocks[f"functional_layer.{name}"] = (getattr(network, name), shape)
    for sb in basis.sensors:
        shapes = {"mean": (m,), "eigenvalues": (m,), "components": (sb.num_components, m)}
        for name, shape in shapes.items():
            blocks[f"basis sensor {sb.sensor_id} {name}"] = (getattr(sb, name), shape)
    fan_in = 1  # the functional layer's output H is one number
    for i, layer in enumerate(network.layers):
        blocks[f"numerical_layers[{i}].weights"] = (layer.weights, (len(layer.bias), fan_in))
        blocks[f"numerical_layers[{i}].bias"] = (layer.bias, (len(layer.bias),))
        fan_in = len(layer.bias)
    shapes = [(N_SETTINGS,)] * 2 + [(n_s,)] * 2
    shapes += [(n_s, N_SETTINGS, h), (n_s, h), (n_s, h), (n_s,)]
    for name, shape in zip(_CONDITION_ARRAYS, shapes):
        blocks[f"condition_model.{name}"] = (getattr(cm, name), shape)
    blocks["scaler.minimum"] = (scaler.minimum, (n_s,))
    blocks["scaler.maximum"] = (scaler.maximum, (n_s,))
    for name, (array, shape) in blocks.items():
        if np.shape(array) != shape:
            raise ArtifactError(
                f"artifact block {name} has shape {np.shape(array)}, expected {shape}"
            )
        if not np.isfinite(array).all():
            raise ArtifactError(f"artifact block {name} holds a non-finite value")
    if not network.label_scale > 0:
        raise ArtifactError(f"artifact block label_scale is {network.label_scale}, expected > 0")
    ids = [sb.sensor_id for sb in basis.sensors]
    if ids != scaler.sensor_ids:
        raise ArtifactError(
            f"artifact basis covers sensors {ids}, but the scaler retains {scaler.sensor_ids}"
        )


def save_model(pipeline: Pipeline, stream: TextIO) -> None:
    """Write the pipeline artifact as JSON (floats round-trip exactly)."""
    json.dump(pipeline_to_doc(pipeline), stream, indent=1)


def load_model(stream: TextIO) -> Pipeline:
    """Read a pipeline artifact; raises ArtifactError on damage, mismatch or
    missing preprocessing state."""
    try:
        doc = json.load(stream)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"artifact is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ArtifactError("artifact root must be a JSON object")
    return pipeline_from_doc(doc)
