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
Training uses the precomputed-score form, projected into an array that ends
in a ones column so that each layer's bias rides inside its matmul (see
``FmlpModel.layers``).
"""

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .cmapss import N_SENSORS, N_SETTINGS, SUBSET_IDS, Trajectories
from .errors import (
    ArtifactError,
    NumericError,
    TrainingError,
    check_finite,
    json_block,
    json_number,
)
from .fpca import EigenBasis, SensorBasis, project
from .numerics import seeded_rng
from .preprocess import (
    CONDITION_FEATURES,
    DEFAULT_RUL_CAP,
    ConditionModel,
    MinMaxScaler,
    Windows,
    last_windows,
)

ARTIFACT_SCHEMA = "fmlp-artifact/6"
ARTIFACT_KEYS = ("schema", "subset_id", "window_length", "condition_model", "scaler",
                 "label_scale", "train_config", "basis", "network")

DEFAULT_FUNCTIONAL_NEURONS = 4
HIDDEN_WIDTH = 2
_ONE = np.array(1.0)  # 0-d, made once: numpy converts a Python float operand per call
MOMENTUM = np.array(0.9)  # the Nesterov step's beta (Sutskever et al. 2013), 0-d as _ONE is

# The parameter blocks by name: the functional layer (a, b, beta), the
# logistic hidden layer (w1, b1), the linear output unit (w2, b2). Each is a
# view into FmlpModel.params, which holds them folded as FmlpModel.layers.
BLOCKS = ("a", "b", "beta", "w1", "b1", "w2", "b2")


def _block_shapes(k: int, d: int) -> dict[str, tuple[int, ...]]:
    """Each block's shape for K functional neurons and D basis components."""
    h = HIDDEN_WIDTH
    return dict(zip(BLOCKS, [(k,), (k,), (k, d), (h, 1), (h,), (1, h), (1,)]))


@dataclass
class TrainConfig:
    """Mini-batch training settings.

    Each step is Nesterov's look-ahead step in Sutskever et al.'s form: with
    g = learning_rate * gradient, the velocity becomes v = MOMENTUM * v + g
    and the parameters move by g + MOMENTUM * v, an effective step of
    learning_rate / (1 - MOMENTUM), 0.8 at the defaults. Whoever changes
    ``batch_size`` should scale ``learning_rate`` in proportion (linear
    scaling; 0.08 at 512 rows). Batches above 512 rows are untested. The
    step size and the epoch budget were sized on held-out training engines
    (README); early stopping on the window split rarely ends a run before
    the budget.
    """

    learning_rate: float = 0.08
    epochs: int = 90
    batch_size: int = 512
    seed: int = 0
    patience: int = 25
    val_fraction: float = 0.1

    def __post_init__(self):
        for f in dataclasses.fields(self):  # each read as an artifact reads it back
            value = json_number(getattr(self, f.name), type(f.default), f.name, ValueError)
            setattr(self, f.name, value)
        for name in ("learning_rate", "epochs", "batch_size", "patience"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 <= self.val_fraction <= 0.5:
            raise ValueError(f"val_fraction must be in [0, 0.5], got {self.val_fraction}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass
class FmlpModel:
    """The trained network, the eigenbasis its functional layer reads, and the
    settings that trained it.

    Every network parameter lives in one float64 vector, ``params``, laid
    out as ``layers`` describes; each block in ``BLOCKS`` is a view into it.
    """

    a: np.ndarray  # (K,) functional-neuron output weights
    b: np.ndarray  # (K,) functional-neuron biases
    beta: np.ndarray  # (K, D) weight-function coefficients, sensor-major
    w1: np.ndarray  # (2, 1) hidden-layer weights
    b1: np.ndarray  # (2,) hidden-layer biases
    w2: np.ndarray  # (1, 2) output weights
    b2: np.ndarray  # (1,) output bias
    basis: EigenBasis
    train_config: TrainConfig
    label_scale: float = float(DEFAULT_RUL_CAP)
    params: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.train_config, TrainConfig):
            raise ValueError(f"train_config is {self.train_config!r}, expected a TrainConfig")
        self.label_scale = json_number(self.label_scale, float, "label_scale", ValueError)
        if not (self.label_scale > 0 and self.label_scale.is_integer()):  # evaluate caps RULs at it
            raise ValueError(f"label_scale is {self.label_scale}, expected > 0 and a whole number")
        shapes = _block_shapes(self.n_functional, self.basis.total_components)
        for name, shape in shapes.items():
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(
                    f"block {name} has shape {np.shape(getattr(self, name))}, expected {shape}"
                )
        self.params = np.empty(sum(math.prod(shape) for shape in shapes.values()))
        for name, view in self.blocks(self.params):
            view[...] = getattr(self, name)
            setattr(self, name, view)
        check_finite(self.blocks(self.params))

    def layers(self, vector: np.ndarray) -> tuple[np.ndarray, ...]:
        """The views of a vector laid out like ``params``, one per layer and
        each with its bias as the last row: [beta.T; b] (D+1, K),
        [w1.T; b1] (2, 2), then a (K,) and [w2, b2] (3,)."""
        k, d, h = self.n_functional, self.basis.total_components, HIDDEN_WIDTH
        i = (d + 1) * k
        j = i + 2 * h
        first, second = vector[:i].reshape(d + 1, k), vector[i:j].reshape(2, h)
        return first, second, vector[j : j + k], vector[j + k :]

    def blocks(self, vector: np.ndarray) -> list[tuple[str, np.ndarray]]:
        """(name, view) per parameter block of a vector laid out like ``params``."""
        first, second, a, head = self.layers(vector)
        views = (a, first[-1], first[:-1].T, second[:1].T, second[1], head[None, :-1], head[-1:])
        return list(zip(BLOCKS, views))

    @property
    def n_functional(self) -> int:
        return len(self.a)

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
        forward = _Kernel(self, len(windows))
        forward.run(_network_input(self.basis, windows))
        estimates = forward.out * self.label_scale
        if not (np.isfinite(forward.h).all() and np.isfinite(estimates).all()):
            raise NumericError("network output is not finite: weights too large for these windows")
        return forward.z, estimates


@dataclass
class Pipeline:
    """The fitted chain for raw engine histories: condition removal, min-max
    scaling, the last window, FPCA projection, then the network."""

    condition_model: ConditionModel
    scaler: MinMaxScaler
    network: FmlpModel
    subset_id: str

    def __post_init__(self):
        if self.subset_id not in SUBSET_IDS:
            raise ValueError(f"subset_id is {self.subset_id!r}, expected one of {SUBSET_IDS}")
        ids, kept = [s.sensor_id for s in self.network.basis.sensors], self.scaler.sensor_ids
        if ids != kept:
            raise ValueError(f"basis covers sensors {ids}, but the scaler retains {kept}")

    @property
    def window_length(self) -> int:
        return len(self.network.basis.grid)

    def predict(self, split: Trajectories) -> np.ndarray:
        """Clamped RUL estimates in cycles, one per unit of the split, in order."""
        windows = last_windows(split, self.window_length, self.condition_model, self.scaler)
        return self.network.predict_many(windows)


def _scaled_targets(model: FmlpModel, windows: Windows) -> np.ndarray:
    if windows.labels is None:
        raise ValueError("windows have no labels")
    return windows.labels / model.label_scale


def _network_input(basis: EigenBasis, windows: Windows) -> np.ndarray:
    """[scores, 1] (N, D+1), one array: ``project`` fills the first D
    columns, and the ones column carries the first layer's bias."""
    return project(basis, windows, np.ones((len(windows), basis.total_components + 1)))


def _logistic_in_place(x: np.ndarray) -> np.ndarray:
    """The logistic 1/(1+e^-x) in place. Every caller runs it under
    ``errstate(over="ignore")``: for x below about -709.78, e^-x overflows
    to inf and 1/(1+inf) is exactly 0, the logistic's limit."""
    np.negative(x, x)
    np.exp(x, x)
    np.add(x, _ONE, x)
    return np.reciprocal(x, x)


class _Kernel:
    """The network over n rows of [scores, 1] (n, D+1): the forward pass,
    ``run(x)``, and, given ``grad`` and ``velocity``, vectors laid out like
    ``params``, one Nesterov step, ``step(x, targets)``. A step writes
    ``scale`` times the gradient of the MSE over the rows of x into ``grad``,
    sets ``velocity`` to MOMENTUM times itself plus ``grad``, subtracts
    ``grad`` plus MOMENTUM times the new velocity from ``params``, and
    returns the rows' sum of squared residuals before the update. Views of
    the parameters and every other operand are bound once, here, so both
    follow every in-place update; each call overwrites the work arrays, and
    the ones rows are never written. Finiteness is the caller's check."""

    def __init__(self, model: FmlpModel, n: int, grad=None, velocity=None, scale=1.0):
        params, dot, multiply, subtract, one = model.params, np.dot, np.multiply, np.subtract, _ONE
        add, momentum = np.add, MOMENTUM
        (first, second, a, head), logistic = model.layers(params), _logistic_in_place
        self.z = z = np.empty((n, model.n_functional))  # the functional activations
        h1 = np.ones((2, n))  # [H; 1]
        self.h = h = h1[0]
        hidden1 = np.ones((HIDDEN_WIDTH + 1, n))  # [hidden activations; 1]
        hidden, second_t = hidden1[:HIDDEN_WIDTH], second.T
        self.out = out = np.empty(n)  # the output, then its residual

        def run(x: np.ndarray) -> None:
            logistic(dot(x, first, z))
            dot(z, a, h)
            logistic(dot(second_t, h1, hidden))
            dot(head, hidden1, out)

        self.run = run
        if grad is None:
            return
        g_first, g_second, g_a, g_head = model.layers(grad)
        w1, a_row, w2_col, out_row = second[0], a[None, :], head[:-1, None], out[None, :]
        # The backward arrays hold derivatives of J up to the factor 2/n,
        # which the gradient takes once at the end, with the step size.
        factor = np.array(scale * 2.0 / n)
        dz = np.empty_like(z)  # dJ/d(functional pre-activation)
        dhidden = np.empty_like(hidden)  # dJ/d(hidden pre-activation)
        dhidden_t, dh = dhidden.T, np.empty(n)  # dJ/dH
        dh_col = dh[:, None]
        update = np.empty_like(grad)  # grad + MOMENTUM * velocity, the look-ahead step

        def step(x: np.ndarray, targets: np.ndarray) -> np.float64:
            """The logistic derivatives s(1 - s) overwrite the activations,
            and each rank-1 outer product is one matmul."""
            run(x)
            residual = subtract(out, targets, out)
            dot(hidden1, residual, g_head)
            dot(w2_col, out_row, dhidden)
            multiply(dhidden, hidden, dhidden)
            multiply(dhidden, subtract(one, hidden, hidden), dhidden)
            dot(h1, dhidden_t, g_second)
            dot(w1, dhidden, dh)
            dot(dh, z, g_a)
            dot(dh_col, a_row, dz)
            multiply(dz, z, dz)
            multiply(dz, subtract(one, z, z), dz)
            dot(x.T, dz, g_first)
            multiply(grad, factor, grad)
            multiply(velocity, momentum, velocity)
            add(velocity, grad, velocity)
            multiply(velocity, momentum, update)
            add(update, grad, update)
            subtract(params, update, params)
            return dot(residual, residual)

        self.step = step

    @np.errstate(over="ignore", invalid="ignore")  # divergence is checked by callers
    def mse(self, x: np.ndarray, targets: np.ndarray) -> float:
        """Mean squared error over the rows of x, in scaled label units."""
        self.run(x)
        residual = np.subtract(self.out, targets, out=self.out)
        return float(np.dot(residual, residual)) / len(targets)


def init_model(
    basis: EigenBasis,
    rng: np.random.Generator,
    train_config: TrainConfig,
    n_functional: int = DEFAULT_FUNCTIONAL_NEURONS,
    label_scale: float = float(DEFAULT_RUL_CAP),
) -> FmlpModel:
    """Seeded weights and zero biases. Each weight block is drawn from U(-l, l)
    with l = sqrt(6 / (fan-in + fan-out)) (Glorot & Bengio 2010): a functional
    neuron reads D scores into 1 output, the sum H reads K activations."""
    d, h = basis.total_components, HIDDEN_WIDTH

    def glorot(fan_in: int, fan_out: int, shape) -> np.ndarray:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    a, beta = glorot(n_functional, 1, n_functional), glorot(d, 1, (n_functional, d))
    w1, w2 = glorot(1, h, (h, 1)), glorot(h, 1, (1, h))
    return FmlpModel(
        a=a,
        b=np.zeros(n_functional),
        beta=beta,
        w1=w1,
        b1=np.zeros(HIDDEN_WIDTH),
        w2=w2,
        b2=np.zeros(1),
        basis=basis,
        train_config=train_config,
        label_scale=label_scale,
    )


@dataclass
class TraceRow:
    """One epoch of training, in scaled label units. ``train_mse`` is the mean
    over the training split of each row's squared error, taken in its batch's
    forward pass before that batch's update: the batch losses' mean weighted
    by batch size. ``val_mse`` is the validation split's MSE at the end of the
    epoch, the value early stopping reads; None without a validation split."""

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
    cfg: TrainConfig,
    label_scale: float = float(DEFAULT_RUL_CAP),
) -> TrainResult:
    """Mini-batch gradient descent with Nesterov momentum on the MSE of
    scaled RUL labels.

    Projection scores are computed once and reused every epoch. When the
    validation fraction is positive, the returned model is the snapshot
    with the best end-of-epoch validation MSE, and training stops once
    ``patience`` + 1 epochs in a row bring no improvement: after best
    epoch + patience + 1 epochs, unless ``epochs`` ends it first. Each
    epoch's trace row takes ``train_mse`` from the residuals its descent
    steps already computed, with no pass of its own (see ``TraceRow``).
    Raises TrainingError, checked once per epoch, if a parameter or the
    loss stops being finite.
    """
    if not instances:
        raise ValueError("no training instances")
    rng = seeded_rng(cfg.seed)
    model = init_model(basis, rng, cfg, label_scale=label_scale)

    # One copy of the inputs in the drawn order, validation rows first. The training
    # split is never empty: val_fraction <= 0.5 (TrainConfig), and round(n / 2) < n.
    n = len(instances)
    perm = rng.permutation(n)
    scores = _network_input(basis, instances)[perm]
    targets = _scaled_targets(model, instances)[perm]
    n_val = int(round(cfg.val_fraction * n))
    val_scores, val_targets = scores[:n_val], targets[:n_val]
    train_scores, train_targets = scores[n_val:], targets[n_val:]
    # Each epoch's shuffled rows are taken into fixed buffers, whose batch
    # views and work arrays are made once.
    epoch_scores, epoch_targets = np.empty_like(train_scores), np.empty_like(train_targets)
    params, n_fit = model.params, n - n_val
    grad, velocity, lr = np.empty_like(params), np.zeros_like(params), cfg.learning_rate
    size = min(cfg.batch_size, n_fit)
    # One step per batch size, the full batches and a shorter last one; one velocity
    # carries across both and across epochs.
    steps = {m: _Kernel(model, m, grad, velocity, lr).step for m in {size, n_fit % size} - {0}}
    batches = [
        (epoch_scores[s : s + size], epoch_targets[s : s + size], steps[min(size, n_fit - s)])
        for s in range(0, n_fit, size)
    ]
    val_pass = _Kernel(model, n_val)
    best = np.empty_like(params)  # the best epoch's parameters, copied in place
    best_val, best_epoch = np.inf, 0  # best_epoch 0: no snapshot taken
    trace: list[TraceRow] = []
    for epoch in range(1, cfg.epochs + 1):
        # order permutes range(n_fit), so "clip" clips nothing; "raise" would buffer out.
        order = rng.permutation(n_fit)
        np.take(train_scores, order, 0, epoch_scores, "clip")
        np.take(train_targets, order, 0, epoch_targets, "clip")
        sse = 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # checked once per epoch
            for x, t, step in batches:
                sse += step(x, t)
        # A non-finite gradient makes a parameter non-finite in the same step.
        if not np.isfinite(params).all():
            name = next(name for name, v in model.blocks(params) if not np.isfinite(v).all())
            raise TrainingError(
                f"training diverged at epoch {epoch}: non-finite parameter block {name}"
            )

        train_mse = float(sse) / n_fit
        if not np.isfinite(train_mse):
            raise TrainingError(f"training loss diverged at epoch {epoch}")
        val_mse = None
        if n_val:
            val_mse = val_pass.mse(val_scores, val_targets)
            if not np.isfinite(val_mse):
                raise TrainingError(f"validation loss diverged at epoch {epoch}")
        trace.append(TraceRow(epoch=epoch, train_mse=train_mse, val_mse=val_mse))

        if n_val and val_mse < best_val:
            best_val, best_epoch = val_mse, epoch
            best[:] = params
        elif n_val and epoch - best_epoch > cfg.patience:
            break

    if best_epoch:
        params[:] = best
    return TrainResult(model=model, trace=trace)


# ---------------------------------------------------------------------------
# Artifact serialization ("fmlp-artifact/6"): one JSON document holding the
# network, the eigenbasis and the preprocessing state, each value once.


def _array(x) -> list:
    return np.asarray(x, dtype=np.float64).tolist()


def _condition_shapes() -> dict[str, tuple[int, ...]]:
    """Each array of a ConditionModel, in artifact order, with its shape."""
    s = N_SENSORS
    names = ("setting_min", "setting_max", "target_mean", "target_scale", "weights", "bias")
    shapes = [(N_SETTINGS,)] * 2 + [(s,)] * 2 + [(s, CONDITION_FEATURES), (s,)]
    return dict(zip(names, shapes))


def model_to_doc(model: FmlpModel) -> dict:
    """The network as a JSON-ready document; ``pipeline_to_doc`` adds the
    pipeline keys."""
    return {
        "schema": ARTIFACT_SCHEMA,
        "label_scale": model.label_scale,
        "train_config": dataclasses.asdict(model.train_config),
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
    condition_doc = {field: _array(getattr(cm, field)) for field in _condition_shapes()}
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
    """Rebuild a pipeline from its artifact document: the loader checks the schema,
    each object's keys and the arrays' shapes, the constructors every other rule.
    An artifact without preprocessing state is rejected."""
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
        _read(doc, {}, "", raw=ARTIFACT_KEYS)
        m = json_number(doc["window_length"], int, "artifact field window_length", ArtifactError)
        if not m > 0:
            raise ArtifactError(f"artifact field window_length is {m}, expected > 0")
        cm_doc = doc["condition_model"]
        condition_model = ConditionModel(**_read(cm_doc, _condition_shapes(), "condition_model."))
        scaler_shapes = dict.fromkeys(("minimum", "maximum"), (N_SENSORS,))
        scaler = _built(MinMaxScaler, "scaler.", **_read(doc["scaler"], scaler_shapes, "scaler."))
        basis_doc = _read(doc["basis"], {}, "basis.", raw=EigenBasis.__dataclass_fields__)
        sensors, m_from, docs = [], f" for window_length {m}", basis_doc.pop("sensors")
        if not isinstance(docs, list):
            raise ArtifactError(f"artifact field basis.sensors is {docs!r}, expected a list")
        for i, s in enumerate(docs):
            name = f"basis.sensors[{i}]."
            p = _length(_object(s, name), "components", name)
            shapes = {"mean": (m,), "eigenvalues": (m,), "components": (p, m)}
            fields = _read(s, shapes, name, m_from, raw=("sensor_id",))
            sensors.append(_built(SensorBasis, name, **fields))
        basis = _built(EigenBasis, "basis.", sensors, **basis_doc)
        net_doc = _object(doc["network"], "network.")
        shapes = _block_shapes(_length(net_doc, "a", "network."), basis.total_components)
        raw = TrainConfig.__dataclass_fields__  # none of its fields is a default
        fields = _read(doc["train_config"], {}, "train_config.", raw=raw)
        train_config = _built(TrainConfig, "train_config.", **fields)
        network = _built(
            FmlpModel, "", **_read(net_doc, shapes, "network."), basis=basis,
            label_scale=doc["label_scale"], train_config=train_config,
        )
        return _built(Pipeline, "", condition_model, scaler, network, doc["subset_id"])
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed model artifact: {exc}") from exc


def _read(doc: dict, shapes: dict, name: str, shape_from: str = "", raw=()) -> dict:
    """The fields of an artifact object that holds exactly the keys of
    ``shapes`` and ``raw``: each numeric block by ``json_block``, each raw
    value as it is. A value that is not an object, or a missing or unknown
    key, is an ArtifactError naming it."""
    keys = [*shapes, *raw]
    if _object(doc, name).keys() != set(keys):
        key = min(doc.keys() ^ set(keys))
        state = "missing" if key in keys else "unknown"
        raise ArtifactError(f"artifact field {name}{key} is {state}")
    return {
        k: json_block(doc[k], shapes[k], name + k, shape_from) if k in shapes else doc[k]
        for k in keys
    }


def _object(doc, name: str) -> dict:
    """``doc`` if it is a JSON object; otherwise an ArtifactError naming the
    object ``name``, which ends in a dot."""
    if not isinstance(doc, dict):
        raise ArtifactError(f"artifact field {name[:-1]} is {doc!r}, expected an object")
    return doc


def _length(doc: dict, key: str, name: str) -> int:
    """The length of the array that another block's shape is sized from; 0 if
    it is missing, which ``_read`` then reports. Anything else but a JSON
    array is an ArtifactError naming it."""
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ArtifactError(f"artifact field {name}{key} is {value!r}, expected an array")
    return len(value)


def _built(cls, name: str, *args, **kwargs):
    """``cls(*args, **kwargs)``. Each constructor's ValueError starts with the
    field's name, so it becomes an ArtifactError naming the field under ``name``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ArtifactError(f"artifact field {name}{exc}") from exc


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
