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

from .cmapss import N_SENSORS, N_SETTINGS
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
)

ARTIFACT_SCHEMA = "fmlp-artifact/1"

ACT_LOGISTIC = "logistic"
ACT_LINEAR = "linear"

DEFAULT_FUNCTIONAL_NEURONS = 4
DEFAULT_HIDDEN_WIDTH = 2


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
    """Trained parameters plus everything needed to preprocess new data.

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
    condition_model: ConditionModel | None = None
    scaler: MinMaxScaler | None = None
    subset_id: str | None = None
    window_length: int | None = None
    train_config: TrainConfig | None = None
    seed: int | None = None
    params: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        k = len(self.a)
        if self.b.shape != (k,) or self.beta.shape != (k, self.basis.total_components):
            raise ValueError("parameter shapes do not match K and the basis")
        last = self.layers[-1]
        if last.activation != ACT_LINEAR or last.weights.shape[0] != 1:
            raise ValueError("final numerical layer must be linear with width 1")
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
    hidden_width: int = DEFAULT_HIDDEN_WIDTH,
    init_scale: float = 0.5,
    label_scale: float = float(DEFAULT_RUL_CAP),
) -> FmlpModel:
    """Seeded uniform(-init_scale, init_scale) weights, zero biases."""
    d = basis.total_components
    scale = init_scale
    a = rng.uniform(-scale, scale, size=n_functional)
    beta = rng.uniform(-scale, scale, size=(n_functional, d))
    hidden = NumericalLayer(
        weights=rng.uniform(-scale, scale, size=(hidden_width, 1)),
        bias=np.zeros(hidden_width),
        activation=ACT_LOGISTIC,
    )
    out = NumericalLayer(
        weights=rng.uniform(-scale, scale, size=(1, hidden_width)),
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
    n_functional: int = DEFAULT_FUNCTIONAL_NEURONS,
    hidden_width: int = DEFAULT_HIDDEN_WIDTH,
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
    model = init_model(
        basis, rng, n_functional, hidden_width, cfg.init_scale, label_scale
    )
    model.train_config = cfg
    model.seed = cfg.seed

    scores = project(basis, instances)
    targets = _scaled_targets(model, instances)
    n = len(instances)

    perm = rng.permutation(n)
    n_val = int(round(cfg.val_fraction * n))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation split leaves no training data")

    params = model.params
    grad = np.empty_like(params)
    grad_blocks = [view for _, view in model.blocks(grad)]
    best = None
    best_val = np.inf
    stale = 0
    trace: list[TraceRow] = []
    for epoch in range(1, cfg.epochs + 1):
        order = train_idx[rng.permutation(train_idx.size)]
        epoch_scores, epoch_targets = scores[order], targets[order]
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

        train_mse = _loss_scores(model, scores[train_idx], targets[train_idx])
        if not np.isfinite(train_mse):
            raise TrainingError(f"training loss diverged at epoch {epoch}")
        val_mse = None
        if n_val:
            val_mse = _loss_scores(model, scores[val_idx], targets[val_idx])
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
# Artifact serialization ("fmlp-artifact/1"): a single JSON document holding
# the network, the eigenbasis, and the preprocessing artifacts.


def _array(x) -> list:
    return np.asarray(x, dtype=np.float64).tolist()


# The array fields of a ConditionModel, in artifact order.
_CONDITION_ARRAYS = (
    "setting_min", "setting_max", "target_mean", "target_scale", "w1", "b1", "w2", "b2"
)


def _condition_model_doc(model: ConditionModel | None):
    if model is None:
        return None
    doc = {field: _array(getattr(model, field)) for field in _CONDITION_ARRAYS}
    doc["config"] = dataclasses.asdict(model.config)
    return doc


def _condition_model_from_doc(doc) -> ConditionModel | None:
    if doc is None:
        return None
    arrays = {field: np.array(doc[field]) for field in _CONDITION_ARRAYS}
    return ConditionModel(**arrays, config=ConditionFitConfig(**doc["config"]))


def model_to_doc(model: FmlpModel) -> dict:
    """The model as a JSON-ready document."""
    return {
        "schema": ARTIFACT_SCHEMA,
        "subset_id": model.subset_id,
        "window_length": model.window_length,
        "seed": model.seed,
        "label_scale": model.label_scale,
        "train_config": (
            dataclasses.asdict(model.train_config) if model.train_config else None
        ),
        "condition_model": _condition_model_doc(model.condition_model),
        "scaler": (
            {
                "minimum": _array(model.scaler.minimum),
                "maximum": _array(model.scaler.maximum),
            }
            if model.scaler is not None
            else None
        ),
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


def model_from_doc(doc: dict) -> FmlpModel:
    """Rebuild a model from its artifact document."""
    try:
        if doc.get("schema") != ARTIFACT_SCHEMA:
            raise ArtifactError(
                f"unsupported artifact schema {doc.get('schema')!r},"
                f" expected {ARTIFACT_SCHEMA!r}"
            )
        basis_doc = doc["basis"]
        basis = EigenBasis(
            grid=np.array(basis_doc["grid"]),
            sensors=[
                SensorBasis(
                    sensor_id=int(s["sensor_id"]),
                    mean=np.array(s["mean"]),
                    eigenvalues=np.array(s["eigenvalues"]),
                    components=np.array(s["components"]),
                    num_components=int(s["num_components"]),
                )
                for s in basis_doc["sensors"]
            ],
            fve_cutoff=float(basis_doc["fve_cutoff"]),
            component_cap=int(basis_doc["component_cap"]),
        )
        scaler_doc = doc["scaler"]
        scaler = (
            MinMaxScaler(
                minimum=np.array(scaler_doc["minimum"]),
                maximum=np.array(scaler_doc["maximum"]),
            )
            if scaler_doc is not None
            else None
        )
        func = doc["functional_layer"]
        cfg_doc = doc["train_config"]
        model = FmlpModel(
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
            label_scale=float(doc["label_scale"]),
            condition_model=_condition_model_from_doc(doc["condition_model"]),
            scaler=scaler,
            subset_id=doc["subset_id"],
            window_length=doc["window_length"],
            train_config=TrainConfig(**cfg_doc) if cfg_doc else None,
            seed=doc["seed"],
        )
        _check_blocks(model)
        return model
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed model artifact: {exc}") from exc


def _check_blocks(model: FmlpModel) -> None:
    """Every numeric block of a loaded artifact is finite and has the shape
    the other blocks imply; ArtifactError names the first that is not."""
    basis, cm, scaler = model.basis, model.condition_model, model.scaler
    m, n_s = len(basis.grid), N_SENSORS
    blocks = {"label_scale": (model.label_scale, ()), "basis.grid": (basis.grid, (m,))}
    for name in ("a", "b", "beta"):
        blocks[f"functional_layer.{name}"] = (getattr(model, name), getattr(model, name).shape)
    for sb in basis.sensors:
        shapes = {"mean": (m,), "eigenvalues": (m,), "components": (sb.num_components, m)}
        for name, shape in shapes.items():
            blocks[f"basis sensor {sb.sensor_id} {name}"] = (getattr(sb, name), shape)
    fan_in = 1  # the functional layer's output H is one number
    for i, layer in enumerate(model.layers):
        blocks[f"numerical_layers[{i}].weights"] = (layer.weights, (len(layer.bias), fan_in))
        blocks[f"numerical_layers[{i}].bias"] = (layer.bias, (len(layer.bias),))
        fan_in = len(layer.bias)
    if cm is not None:
        h = cm.config.hidden_units
        shapes = [(N_SETTINGS,)] * 2 + [(n_s,)] * 2
        shapes += [(n_s, N_SETTINGS, h), (n_s, h), (n_s, h), (n_s,)]
        for name, shape in zip(_CONDITION_ARRAYS, shapes):
            blocks[f"condition_model.{name}"] = (getattr(cm, name), shape)
    if scaler is not None:
        blocks["scaler.minimum"] = (scaler.minimum, (n_s,))
        blocks["scaler.maximum"] = (scaler.maximum, (n_s,))
    for name, (array, shape) in blocks.items():
        if np.shape(array) != shape:
            raise ArtifactError(
                f"artifact block {name} has shape {np.shape(array)}, expected {shape}"
            )
        if not np.isfinite(array).all():
            raise ArtifactError(f"artifact block {name} holds a non-finite value")
    if model.window_length is not None and model.window_length != m:
        raise ArtifactError(
            f"artifact window_length {model.window_length} does not match"
            f" the basis grid length {m}"
        )
    ids = [sb.sensor_id for sb in basis.sensors]
    if scaler is not None and ids != scaler.sensor_ids:
        raise ArtifactError(
            f"artifact basis covers sensors {ids}, but the scaler retains {scaler.sensor_ids}"
        )


def save_model(model: FmlpModel, stream: TextIO) -> None:
    """Write the model artifact as JSON (floats round-trip exactly)."""
    json.dump(model_to_doc(model), stream, indent=1)


def load_model(stream: TextIO) -> FmlpModel:
    """Read a model artifact; raises ArtifactError on damage or mismatch."""
    try:
        doc = json.load(stream)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"artifact is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ArtifactError("artifact root must be a JSON object")
    return model_from_doc(doc)
