"""Shared oracles: a basis fitted with sensor ids 1..R, random functional-MLP
model/batch construction, the batch loss and gradient through the training
kernel, the central-finite-difference gradient check, weight curves and the
discrete integral, a per-matrix reference eigensolve with its column-by-column
sign rule, a per-sensor reference mean, eigensolve and projection, a plain
reference training loop, a split built from per-unit records, and a
line-by-line reference trajectory parser that checks one unit at a time."""

import dataclasses
import io
import math
from types import SimpleNamespace

import numpy as np

from fmlp_rul.cmapss import N_COLUMNS, N_SENSORS, N_SETTINGS, Trajectories
from fmlp_rul.errors import IntegrityError, ParseError
from fmlp_rul import fmlp
from fmlp_rul.fmlp import TrainConfig, init_model
from fmlp_rul.fpca import fit_basis
from fmlp_rul.numerics import seeded_rng
from fmlp_rul.preprocess import Windows

# Relative-error guard: at step 1e-6 the finite-difference quotient carries
# ~1e-10 absolute roundoff, so components far below 1e-4 cannot be certified
# in purely relative terms; the floor turns the check into a ~1e-9 absolute
# bound there while keeping the full 1e-5 relative strictness above it.
FD_STEP = 1e-6
REL_FLOOR = 1e-4


def make_instances(curves, labels=None):
    """Windows over (N, R, M) curves."""
    return Windows(
        np.asarray(curves, dtype=float),
        labels=None if labels is None else np.asarray(labels, dtype=float),
    )


def fit_row_basis(windows, **options):
    """fit_basis with sensor ids 1..R, one per curve row in order."""
    return fit_basis(windows, list(range(1, windows.curves.shape[1] + 1)), **options)


def take(windows, index):
    """The windows at the given positions (an index array or slice)."""
    labels = windows.labels
    return Windows(windows.curves[index], labels=None if labels is None else labels[index])


def discrete_integral(f, g):
    """Approximate the integral of f*g on a shared M-point grid: mean(f*g)."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != g.shape or f.ndim != 1:
        raise ValueError(f"length mismatch: {f.shape} vs {g.shape}")
    return float(np.mean(f * g))


def component_slices(basis):
    """Column ranges of each sensor's scores in a flattened score vector."""
    slices, start = [], 0
    for s in basis.sensors:
        slices.append(slice(start, start + s.num_components))
        start += s.num_components
    return slices


def weight_curve(model, k, r):
    """Weight function of neuron k for sensor position r on the grid."""
    coefficients = model.beta[k, component_slices(model.basis)[r]]
    return coefficients @ model.basis.sensors[r].components


def projection_residual_mse(basis, windows):
    """Mean squared residual of centered curves after projecting onto each
    sensor's selected eigenfunctions (brute-force check value)."""
    total, count = 0.0, 0
    for r, sensor in enumerate(basis.sensors):
        centered = windows.curves[:, r, :] - sensor.mean
        m = centered.shape[1]
        coeffs = centered @ sensor.components.T / m
        recon = coeffs @ sensor.components
        total += np.sum((centered - recon) ** 2)
        count += centered.size
    return total / count


def reference_fix_signs(vectors):
    """Flip eigenvector columns in place, one at a time, so each coordinate
    sum is > 0 or, on an exactly-zero sum, the first nonzero coordinate is."""
    for j in range(vectors.shape[1]):
        s = vectors[:, j].sum()
        if s < 0.0:
            vectors[:, j] = -vectors[:, j]
        elif s == 0.0:
            nonzero = np.nonzero(vectors[:, j])[0]
            if nonzero.size and vectors[nonzero[0], j] < 0.0:
                vectors[:, j] = -vectors[:, j]
    return vectors


def reference_eigh(a):
    """One symmetric matrix: LAPACK's eigh, the stable descending order of
    its eigenvalues, then the column-by-column sign rule."""
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(-values, kind="stable")
    return values[order], reference_fix_signs(vectors[:, order])


def reference_mean_and_eigh(x):
    """A sensor's N x M curves in separate steps: the columnwise sample mean,
    then the reference eigh of the 1/N sample covariance averaged with its
    transpose."""
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / len(x)
    return (x.mean(axis=0), *reference_eigh((cov + cov.T) / 2.0))


def reference_project(basis, windows):
    """Projection scores written plainly: one matmul and one division per
    sensor, the blocks concatenated in sensor order."""
    curves = windows.curves
    m = curves.shape[2]
    blocks = [curves[:, r, :] @ s.components.T / m for r, s in enumerate(basis.sensors)]
    return np.concatenate(blocks, axis=1)


def _kernel_inputs(model, windows):
    """The training kernel's inputs for a labeled batch: [scores, 1], built
    as fmlp builds it, and the scaled targets."""
    return fmlp._network_input(model.basis, windows), fmlp._scaled_targets(model, windows)


def loss(model, windows):
    """Mean squared error over a labeled batch, in scaled label units, from
    the training kernel's forward pass."""
    return fmlp._Kernel(model, len(windows)).mse(*_kernel_inputs(model, windows))


def gradients(model, windows):
    """The training kernel's gradient of the batch MSE, laid out like
    ``model.params``: the gradient of one unit step from a zero velocity,
    taken on a copy."""
    grad, step_model = np.empty_like(model.params), dataclasses.replace(model)
    step = fmlp._Kernel(step_model, len(windows), grad, np.zeros_like(grad)).step
    with np.errstate(over="ignore", invalid="ignore"):  # as in fmlp.train
        step(*_kernel_inputs(model, windows))
    return grad


def random_model_and_batch(seed, k=4, n_sensors=3, m=10, batch_size=3):
    """A random basis (fit from random curves), model, and labeled batch."""
    rng = seeded_rng(seed)
    basis_curves = rng.normal(0.5, 0.2, size=(30, n_sensors, m))
    basis = fit_row_basis(make_instances(basis_curves))
    model = init_model(basis, rng, TrainConfig(), n_functional=k)
    model.b[:] = rng.uniform(-0.5, 0.5, k)
    for bias in (model.b1, model.b2):
        bias[:] = rng.uniform(-0.5, 0.5, bias.shape)
    batch_curves = rng.uniform(0, 1, size=(batch_size, n_sensors, m))
    labels = rng.uniform(0, 130, batch_size)
    return model, make_instances(batch_curves, labels)


def max_gradient_error(model, batch):
    """Worst guarded relative error between analytic and central-difference
    gradients over every parameter of the model."""
    analytic = dict(model.blocks(gradients(model, batch)))
    worst = 0.0
    for name, array in model.blocks(model.params):
        expected = analytic[name]
        for idx in np.ndindex(array.shape):
            original = array[idx]
            array[idx] = original + FD_STEP
            upper = loss(model, batch)
            array[idx] = original - FD_STEP
            lower = loss(model, batch)
            array[idx] = original
            fd = (upper - lower) / (2.0 * FD_STEP)
            denom = max(abs(fd) + abs(expected[idx]), REL_FLOOR)
            worst = max(worst, abs(fd - expected[idx]) / denom)
    return worst


def _clipped_logistic(x):
    return 1.0 / (1.0 + np.exp(np.clip(-x, None, 700.0)))


def reference_train(instances, basis, cfg, n_functional=4, hidden_width=2, label_scale=130.0):
    """fmlp.train written plainly: one array per parameter block, the same
    random draws in the same order, and a per-block Nesterov update each
    step in Sutskever's form, ``v = 0.9 * v + lr * g`` then ``p -= lr * g +
    0.9 * v``, with one velocity ``v`` per block that starts at zero and
    carries across batches and epochs; the best-validation snapshot is a
    copy of every block.
    An epoch's train_mse sums each batch's squared residuals before its
    update and divides by the training split's size. Returns the final
    (name, block) pairs and the trace as (epoch, train_mse, val_mse)
    tuples. Divergence is not checked."""
    rng = seeded_rng(cfg.seed)
    d = basis.total_components
    # Glorot-uniform limits sqrt(6 / (fan-in + fan-out)): a is K -> 1, each
    # beta row D -> 1, w1 1 -> hidden_width and w2 hidden_width -> 1.
    a_limit = np.sqrt(6 / (n_functional + 1))
    a = rng.uniform(-a_limit, a_limit, size=n_functional)
    beta_limit = np.sqrt(6 / (d + 1))
    beta = rng.uniform(-beta_limit, beta_limit, size=(n_functional, d))
    hidden_limit = np.sqrt(6 / (1 + hidden_width))
    w1 = rng.uniform(-hidden_limit, hidden_limit, size=(hidden_width, 1))
    w2 = rng.uniform(-hidden_limit, hidden_limit, size=(1, hidden_width))
    b, b1, b2 = np.zeros(n_functional), np.zeros(hidden_width), np.zeros(1)
    blocks = [a, b, beta, w1, b1, w2, b2]
    velocities = [np.zeros_like(block) for block in blocks]
    names = ["a", "b", "beta", "w1", "b1", "w2", "b2"]

    def forward(scores):
        z = _clipped_logistic(scores @ beta.T + b)
        h = (z @ a)[:, None]
        hidden = _clipped_logistic(h @ w1.T + b1)
        return z, h, hidden, (hidden @ w2.T + b2)[:, 0]

    def mse(scores, targets):
        return float(np.mean((forward(scores)[3] - targets) ** 2))

    scores = reference_project(basis, instances)
    targets = instances.labels / label_scale
    n = len(instances)
    perm = rng.permutation(n)
    n_val = int(round(cfg.val_fraction * n))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    best, best_val, stale, trace = None, np.inf, 0, []
    for epoch in range(1, cfg.epochs + 1):
        order, sse = train_idx[rng.permutation(train_idx.size)], 0.0
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x, t = scores[idx], targets[idx]
            z, h, hidden, yhat = forward(x)
            sse += float(np.sum((yhat - t) ** 2))
            dy = ((2.0 / len(idx)) * (yhat - t))[:, None]
            g_w2, g_b2 = dy.T @ hidden, dy.sum(axis=0)
            dhidden = dy @ w2
            dhidden = dhidden * hidden * (1.0 - hidden)
            g_w1, g_b1 = dhidden.T @ h, dhidden.sum(axis=0)
            dh = (dhidden @ w1)[:, 0]
            g_a = z.T @ dh
            dpre = np.outer(dh, a) * z * (1.0 - z)
            g_beta, g_b = dpre.T @ x, dpre.sum(axis=0)
            grads = [g_a, g_b, g_beta, g_w1, g_b1, g_w2, g_b2]
            for block, v, g in zip(blocks, velocities, grads):
                v[...] = 0.9 * v + cfg.learning_rate * g
                block -= cfg.learning_rate * g + 0.9 * v
        train_mse = sse / train_idx.size
        val_mse = mse(scores[val_idx], targets[val_idx]) if n_val else None
        trace.append((epoch, train_mse, val_mse))
        if n_val:
            if val_mse < best_val:
                best_val, best, stale = val_mse, [block.copy() for block in blocks], 0
            else:
                stale += 1
                if stale > cfg.patience:
                    break
    return list(zip(names, best if best is not None else blocks)), trace


def split_of(units) -> Trajectories:
    """A split from per-unit records with unit_id, cycles, op_settings and
    sensors, in order; the split constructor checks the rules."""
    units = list(units)
    if not units:
        return Trajectories([], [], np.zeros((0, N_SETTINGS)), np.zeros((0, N_SENSORS)))
    return Trajectories(
        np.concatenate([np.full(len(u.cycles), u.unit_id) for u in units]),
        np.concatenate([u.cycles for u in units]),
        np.concatenate([u.op_settings for u in units]),
        np.concatenate([u.sensors for u in units]),
    )


def unit_record(unit_id, settings, sensors, cycles=None) -> SimpleNamespace:
    """One unit's rows, with cycles 1..n unless given, for split_of."""
    n = len(sensors)
    return SimpleNamespace(
        unit_id=unit_id,
        cycles=np.arange(1, n + 1) if cycles is None else np.asarray(cycles),
        op_settings=np.asarray(settings, dtype=float),
        sensors=np.asarray(sensors, dtype=float),
    )


def reference_parse_trajectory_file(text: str) -> list[SimpleNamespace]:
    """The trajectory parser written plainly: one line at a time, Python
    int/float conversion, consecutive rows of one id grouped into a unit.
    Then the rules, one unit at a time in file order, each unit checked for
    a repeated block, then a unit id that is not positive, then cycles that
    do not run 1, 2, 3, ..., then a non-finite reading, named at its first
    cycle. Returns one unit_record per unit."""
    blocks: list[tuple[int, list[int], list[list[float]]]] = []
    for line_no, line in enumerate(io.StringIO(text), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < N_COLUMNS:
            raise ParseError(
                line_no, f"expected at least {N_COLUMNS} fields, got {len(parts)}"
            )
        try:
            unit = int(parts[0])
            cycle = int(parts[1])
            values = [float(x) for x in parts[2:N_COLUMNS]]
        except ValueError as exc:
            raise ParseError(line_no, f"malformed numeric field ({exc})") from None
        if not blocks or blocks[-1][0] != unit:
            blocks.append((unit, [], []))
        blocks[-1][1].append(cycle)
        blocks[-1][2].append(values)

    seen: set[int] = set()
    units = []
    for unit, cycles, rows in blocks:
        if unit in seen:
            raise IntegrityError(
                f"unit {unit}: rows must form one contiguous block, found a second block"
            )
        seen.add(unit)
        if unit <= 0:
            raise IntegrityError(f"unit id must be positive, got {unit}")
        if cycles != list(range(1, len(cycles) + 1)):
            raise IntegrityError(f"unit {unit}: cycles must start at 1 and increase by 1")
        for cycle, values in zip(cycles, rows):
            if not all(math.isfinite(v) for v in values):
                raise IntegrityError(
                    f"unit {unit}: non-finite setting or sensor reading at cycle {cycle}"
                )
        data = np.array(rows, dtype=np.float64)
        units.append(
            unit_record(unit, data[:, :N_SETTINGS], data[:, N_SETTINGS:], np.array(cycles))
        )
    return units
