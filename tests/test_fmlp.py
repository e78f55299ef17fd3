import dataclasses
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmapss_synth import write_subset
from model_oracles import (
    component_slices,
    discrete_integral,
    fit_row_basis,
    gradients,
    loss,
    make_instances,
    max_gradient_error,
    random_model_and_batch,
    reference_project,
    reference_train,
    split_of,
    take,
    unit_record,
    weight_curve,
)

from fmlp_rul.cmapss import N_SENSORS, SUBSET_IDS, DataSubset, load_subset
from fmlp_rul.errors import ArtifactError, TrainingError
from fmlp_rul.fmlp import (
    BLOCKS,
    Pipeline,
    TrainConfig,
    _condition_shapes,
    init_model,
    load_model,
    model_to_doc,
    pipeline_to_doc,
    train,
)
from fmlp_rul.fpca import EigenBasis, SensorBasis, fit_basis
from fmlp_rul.numerics import seeded_rng
from fmlp_rul.preprocess import (
    Windows,
    fit_preprocessing,
    last_windows,
    training_instances,
    transform_rows,
)


def constant_basis(m=8, n=6):
    """Basis whose single eigenfunction is the constant function 1."""
    offsets = np.linspace(-1.0, 1.0, n)
    curves = (np.zeros(m) + offsets[:, None])[:, None, :]
    return fit_row_basis(make_instances(curves))


def two_mode_basis(m=24, n=400):
    """Basis with two selected components (score variances 4 and 3)."""
    grid = np.arange(1, m + 1) / m
    mode1 = np.sqrt(2.0) * np.sin(2 * np.pi * grid)
    mode2 = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
    rng = seeded_rng(17)
    curves = (
        np.outer(rng.normal(0, 2.0, n), mode1) + np.outer(rng.normal(0, np.sqrt(3.0), n), mode2)
    )[:, None, :]
    return fit_row_basis(make_instances(curves))


def zeroed(model):
    model.params[:] = 0.0
    return model


# --- weight curves -----------------------------------------------------------


def test_weight_curve_zero_coefficients():
    model, _ = random_model_and_batch(0)
    model.beta[:] = 0.0
    assert np.array_equal(weight_curve(model, 0, 0), np.zeros(10))


def test_weight_curve_picks_out_eigenfunction():
    model, _ = random_model_and_batch(1)
    model.beta[:] = 0.0
    slices = component_slices(model.basis)
    model.beta[2, slices[1].start] = 1.0
    assert np.array_equal(weight_curve(model, 2, 1), model.basis.sensors[1].components[0])


def test_weight_curve_parseval():
    basis = two_mode_basis()
    assert basis.sensors[0].num_components == 2
    model = init_model(basis, seeded_rng(3), TrainConfig(), n_functional=2)
    model.beta[0, :] = [1.0, 1.0]
    curve = weight_curve(model, 0, 0)
    assert discrete_integral(curve, curve) == pytest.approx(2.0, abs=1e-8)


# --- initialisation ---------------------------------------------------------


@pytest.mark.parametrize("n_sensors,n_components,beta_fans", [(1, 1, 2), (14, 2, 29)])
def test_init_model_draws_each_block_within_its_glorot_limit(n_sensors, n_components, beta_fans):
    # The limits sqrt(6 / (fan-in + fan-out)) written out by hand, so that a
    # wrong formula copied into model_oracles.reference_train still fails
    # here: beta sqrt(3) = 1.7321 at D = 1 and sqrt(6/29) = 0.4549 at D = 28,
    # a sqrt(6/5) = 1.0954 at K = 4, and w1 and w2 sqrt(2). The blocks are
    # drawn as a, beta, w1, w2, in that order.
    m = 8
    sensors = [SensorBasis(i + 1, np.zeros(m), np.ones(m), np.eye(n_components, m))
               for i in range(n_sensors)]
    basis = EigenBasis(sensors, fve_cutoff=0.8, component_cap=2)
    d = basis.total_components
    assert d == beta_fans - 1
    model = init_model(basis, seeded_rng(9), TrainConfig())
    limits = {"a": math.sqrt(6 / 5), "beta": math.sqrt(6 / beta_fans), "w1": math.sqrt(2),
              "w2": math.sqrt(2)}
    rng = seeded_rng(9)
    for name, shape in (("a", (4,)), ("beta", (4, d)), ("w1", (2, 1)), ("w2", (1, 2))):
        block, limit = getattr(model, name), limits[name]
        assert np.abs(block).max() <= limit, name
        assert np.array_equal(block, rng.uniform(-limit, limit, size=shape)), name
    for name in ("b", "b1", "b2"):
        assert not getattr(model, name).any(), name
    again = init_model(basis, seeded_rng(9), TrainConfig())
    assert np.array_equal(again.params, model.params)


# --- functional layer -------------------------------------------------


def test_functional_layer_at_zero_parameters():
    model, batch = random_model_and_batch(2)
    model.beta[:] = 0.0
    model.b[:] = 0.0
    z = model.functional_layer(batch)
    assert z.shape == (len(batch), model.n_functional)
    assert np.allclose(z, 0.5)


def test_functional_layer_constant_weight_function():
    basis = constant_basis()
    model = init_model(basis, seeded_rng(5), TrainConfig(), n_functional=1)
    model.beta[0, 0] = 1.0  # weight curve is the constant function 1
    model.b[0] = 0.0
    c = 0.37
    z = model.functional_layer(make_instances(np.full((1, 1, 8), c)))[0]
    assert z[0] == pytest.approx(1.0 / (1.0 + np.exp(-c)), abs=1e-12)


def test_forward_matches_weight_curve_integrals():
    # same sums in two orders: projection scores vs explicit weight curves
    model, batch = random_model_and_batch(6)
    z_fast = model.functional_layer(batch)
    z_slow = np.empty_like(z_fast)
    for i, curves in enumerate(batch.curves):
        for k in range(model.n_functional):
            acc = model.b[k]
            for r in range(len(model.basis.sensors)):
                acc += discrete_integral(weight_curve(model, k, r), curves[r])
            z_slow[i, k] = 1.0 / (1.0 + np.exp(-acc))
    assert np.max(np.abs(z_fast - z_slow)) < 1e-12


# --- forward / predict ------------------------------------------------


def test_forward_dead_network_returns_bias():
    model, batch = random_model_and_batch(7)
    zeroed(model)
    model.b2[0] = 0.625
    estimates = model.predict_many(batch)
    assert estimates == pytest.approx([0.625 * model.label_scale] * len(batch), abs=1e-12)


def test_default_architecture_shape():
    model, batch = random_model_and_batch(8)
    assert model.n_functional == 4
    d = model.basis.total_components
    shapes = [(4,), (4,), (4, d), (2, 1), (2,), (1, 2), (1,)]
    blocks = model.blocks(model.params)
    assert [(name, view.shape) for name, view in blocks] == list(zip(BLOCKS, shapes))
    assert model.params.size == 4 + 4 + 4 * d + 2 + 2 + 2 + 1
    for name, view in blocks:  # each block is its view into params
        assert np.array_equal(getattr(model, name), view), name
        assert np.shares_memory(getattr(model, name), model.params), name
    assert np.isfinite(model.predict_many(batch)).all()


def test_predict_clamps_negative_estimates():
    model, batch = random_model_and_batch(9)
    zeroed(model)
    model.b2[0] = -3.2 / model.label_scale
    assert np.array_equal(model.predict_many(batch), np.zeros(len(batch)))
    model.b2[0] = 3.2 / model.label_scale
    assert model.predict_many(batch) == pytest.approx([3.2] * len(batch), rel=1e-12)


def test_predict_is_pure():
    model, batch = random_model_and_batch(10)
    first = model.predict_many(batch)
    assert np.array_equal(model.predict_many(batch), first)
    assert np.array_equal(model.predict_many(take(batch, [2, 0])), first[[2, 0]])


@pytest.mark.parametrize("magnitude", [800.0, 1e300])
def test_saturated_logistic_is_exact(magnitude):
    # pre-activations within 0.1% of +-magnitude: e^-x underflows to 0 or
    # overflows to inf, so each activation is exactly 1 or 0, with no warning
    model, batch = random_model_and_batch(20)
    signs = np.resize([1.0, -1.0], model.n_functional)
    score_sum = np.abs(reference_project(model.basis, batch)).sum(axis=1).max()
    model.beta *= 1e-3 * magnitude / (np.abs(model.beta).max() * score_sum)
    model.b[:] = signs * magnitude
    model.w1 *= 1e-3 * magnitude / (np.abs(model.w1).max() * np.abs(model.a).sum())
    model.b1[:] = [magnitude, -magnitude]  # hidden activations exactly [1, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z = model.functional_layer(batch)
        estimates = model.predict_many(batch)
        grad = gradients(model, batch)
    assert np.array_equal(z, np.broadcast_to(signs > 0, z.shape))
    expected = max(0.0, (model.w2[0, 0] + model.b2[0]) * model.label_scale)
    assert estimates == pytest.approx([expected] * len(batch), rel=1e-15, abs=0)
    assert np.isfinite(grad).all()
    for name in ("b", "beta", "w1", "b1"):  # the logistic derivatives are exactly 0
        assert not dict(model.blocks(grad))[name].any(), name


def test_model_validation():
    model, _ = random_model_and_batch(11)
    for name, bad in [
        ("w1", np.zeros((3, 1))),  # a hidden width other than 2
        ("b1", np.zeros(3)),
        ("w2", np.zeros((2, 2))),  # an output wider than 1
        ("w2", np.zeros((1, 3))),
        ("b2", np.zeros(())),
        ("beta", model.beta[:, :-1]),
    ]:
        with pytest.raises(ValueError, match=f"block {name} has shape"):
            dataclasses.replace(model, **{name: bad})


# --- loss --------------------------------------------------------------


def test_loss_zero_at_perfect_fit():
    model, batch = random_model_and_batch(12)
    zeroed(model)
    model.b2[0] = 0.5
    batch.labels[:] = 0.5 * model.label_scale
    assert loss(model, batch) == 0.0


def test_loss_hand_value():
    model, batch = random_model_and_batch(13, batch_size=2)
    zeroed(model)
    model.b2[0] = 0.5
    batch.labels[:] = [(0.5 - 0.1) * model.label_scale, (0.5 + 0.1) * model.label_scale]
    assert loss(model, batch) == pytest.approx(0.01, rel=1e-12)


def test_loss_batch_order_invariant():
    model, batch = random_model_and_batch(14, batch_size=5)
    reversed_batch = take(batch, slice(None, None, -1))
    assert loss(model, batch) == pytest.approx(loss(model, reversed_batch), abs=1e-12)


def test_loss_requires_labels():
    model, batch = random_model_and_batch(15)
    batch.labels = None
    with pytest.raises(ValueError):
        loss(model, batch)


# --- gradients ----------------------------------------------------------


def test_gradients_match_finite_differences():
    worst = max(
        max_gradient_error(*random_model_and_batch(seed)) for seed in range(10)
    )
    assert worst < 1e-5


def test_gradients_zero_at_perfect_fit():
    model, batch = random_model_and_batch(16)
    zeroed(model)
    model.b2[0] = 0.25
    batch.labels[:] = 0.25 * model.label_scale
    grads = gradients(model, batch)
    assert grads.shape == model.params.shape
    for name, block in model.blocks(grads):
        assert not block.any(), name


def test_full_batch_descent_is_monotone():
    # full-batch gradient descent with halving on increase must descend
    model, _ = random_model_and_batch(17)
    rng = seeded_rng(18)
    curves = rng.uniform(0, 1, size=(40, 3, 10))
    labels = rng.uniform(0, 130, 40)
    data = make_instances(curves, labels)
    lr = 0.5
    losses = [loss(model, data)]
    for _ in range(50):
        grads = gradients(model, data)
        while True:
            trial = dataclasses.replace(model)
            trial.params -= lr * grads
            candidate = loss(trial, data)
            if candidate <= losses[-1] or lr < 1e-12:
                model = trial
                losses.append(candidate)
                break
            lr /= 2.0
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


# --- training -----------------------------------------------------------

# Batches of 64 at the step size that goes with them (0.08 x 64 / 512). On
# these tests' 90-200 windows they give several batches per epoch and a short
# last one, where the 512-row default gives one batch per epoch.
BATCHES_OF_64 = {"batch_size": 64, "learning_rate": 0.01}


def rank_one_task():
    m, n = 20, 600
    shape = 0.5 + 0.5 * np.sin(np.linspace(0, np.pi, m))
    rng = seeded_rng(11)
    xi = rng.uniform(0.0, 1.0, n)
    curves = (np.outer(xi, shape) + rng.normal(0, 0.005, (n, m)))[:, None, :]
    return make_instances(curves, 130.0 * xi)


def test_train_solves_rank_one_task():
    data = rank_one_task()
    basis = fit_row_basis(data)
    cfg = TrainConfig(learning_rate=0.2, epochs=3000, batch_size=32, patience=300, seed=3)
    result = train(data, basis, cfg)
    assert np.sqrt(loss(result.model, data)) < 0.05


def test_train_deterministic_trace():
    data = take(rank_one_task(), slice(200))
    basis = fit_row_basis(data)
    cfg = TrainConfig(epochs=30, seed=21, **BATCHES_OF_64)
    first = train(data, basis, cfg)
    second = train(data, basis, cfg)
    assert [(r.epoch, r.train_mse, r.val_mse) for r in first.trace] == [
        (r.epoch, r.train_mse, r.val_mse) for r in second.trace
    ]
    assert np.array_equal(first.model.beta, second.model.beta)


# The kernel folds each bias into its layer's matmul and scales the
# gradient once, so its sums round differently from the plain loop's.
REFERENCE_RTOL = 1e-12


def assert_train_matches_reference(data, cfg):
    """train and reference_train agree on every block and trace value to
    REFERENCE_RTOL, with no absolute slack; returns the reference trace."""
    basis = fit_row_basis(data)
    result = train(data, basis, cfg)
    expected, trace = reference_train(data, basis, cfg)
    actual = result.model.blocks(result.model.params)
    assert [name for name, _ in actual] == [name for name, _ in expected]
    for (name, got), (_, want) in zip(actual, expected):
        np.testing.assert_allclose(got, want, rtol=REFERENCE_RTOL, atol=0, err_msg=name)
    assert [r.epoch for r in result.trace] == [epoch for epoch, _, _ in trace]
    for row, (_, train_mse, val_mse) in zip(result.trace, trace):
        assert row.train_mse == pytest.approx(train_mse, rel=REFERENCE_RTOL, abs=0)
        if val_mse is None:
            assert row.val_mse is None
        else:
            assert row.val_mse == pytest.approx(val_mse, rel=REFERENCE_RTOL, abs=0)
    return trace


@pytest.mark.parametrize(
    "seed,options",
    [
        (3, BATCHES_OF_64),
        (4, BATCHES_OF_64),
        (5, {"val_fraction": 0.0, **BATCHES_OF_64}),
        (6, {"patience": 2, **BATCHES_OF_64}),
        (7, {}),  # the defaults: 512 rows exceed the 180 fit windows, one batch per epoch
    ],
)
def test_train_matches_reference_loop(seed, options):
    # the same draws and updates as the plain per-block loop, to rounding
    cfg = TrainConfig(epochs=40, seed=seed, **options)
    trace = assert_train_matches_reference(take(rank_one_task(), slice(200)), cfg)
    if "patience" in options:
        # stopped early, so the result is an earlier epoch's snapshot
        assert len(trace) < cfg.epochs


def test_train_matches_reference_loop_at_the_default_batches():
    # all 600 windows leave 540 fit rows at the defaults: one 512-row batch
    # and a 28-row last batch, so both of the default shape's kernels run
    data, cfg = rank_one_task(), TrainConfig(epochs=40, seed=8)
    assert fit_rows(cfg.val_fraction, len(data)) - cfg.batch_size == 28
    assert_train_matches_reference(data, cfg)


def fit_rows(val_fraction, n=40):
    """The training split's size for n windows."""
    return n - int(round(val_fraction * n))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([0.0, 0.1, 0.5]).flatmap(
        lambda f: st.tuples(st.just(f), st.integers(1, fit_rows(f) + 8))
    )
)
@example((0.0, 1))  # batches of one row
@example((0.1, 35))  # 36 fit rows: a last batch of one row
def test_train_matches_reference_for_any_batching(split):
    # every batch size, up to one batch per epoch, and its short last batch
    val_fraction, batch_size = split
    cfg = TrainConfig(
        epochs=3, seed=8, batch_size=batch_size, val_fraction=val_fraction, learning_rate=0.05
    )
    assert_train_matches_reference(take(rank_one_task(), slice(40)), cfg)


def test_one_batch_train_mse_is_previous_epochs_full_split_mse():
    # with one batch per epoch, that batch's residuals are the whole split's,
    # taken with the parameters that the previous epoch ended on
    data = take(rank_one_task(), slice(120))
    basis = fit_row_basis(data)
    cfg = TrainConfig(epochs=6, seed=9, batch_size=256, val_fraction=0.0)
    trace = train(data, basis, cfg).trace
    for epoch in range(1, cfg.epochs):
        ended = train(data, basis, dataclasses.replace(cfg, epochs=epoch)).model
        assert trace[epoch].train_mse == pytest.approx(loss(ended, data), rel=1e-12, abs=0)


@pytest.mark.parametrize("patience", [1, 2, 3])
def test_early_stopping_runs_patience_plus_one_stale_epochs(patience):
    # training stops at the (patience + 1)-th epoch in a row without a better val MSE
    data = take(rank_one_task(), slice(200))
    cfg = TrainConfig(epochs=40, seed=6, patience=patience, **BATCHES_OF_64)
    trace = train(data, fit_row_basis(data), cfg).trace
    best_epoch = min(trace, key=lambda row: row.val_mse).epoch
    assert len(trace) == best_epoch + patience + 1 < cfg.epochs


@pytest.mark.parametrize(
    "seed,patience",
    [
        (6, 2),  # patience ends the run
        (2, 300),  # the budget ends the run; its best epoch is 17 of 40
    ],
)
def test_returned_network_is_the_best_epochs(seed, patience):
    # the returned parameters are the best epoch's, bit for bit: those that a
    # run whose budget ends at that epoch returns
    data = take(rank_one_task(), slice(200))
    basis = fit_row_basis(data)
    cfg = TrainConfig(epochs=40, seed=seed, patience=patience, **BATCHES_OF_64)
    result = train(data, basis, cfg)
    best_epoch = min(result.trace, key=lambda row: row.val_mse).epoch
    assert best_epoch < len(result.trace)
    upto_best = train(data, basis, dataclasses.replace(cfg, epochs=best_epoch))
    assert result.model.params.tobytes() == upto_best.model.params.tobytes()
    rows = [
        [(r.epoch, r.train_mse, r.val_mse) for r in run.trace] for run in (result, upto_best)
    ]
    assert rows[0][:best_epoch] == rows[1]


def test_train_reports_divergence_epoch():
    # the weights are still finite when the validation loss overflows
    data = take(rank_one_task(), slice(100))
    basis = fit_row_basis(data)
    with pytest.raises(TrainingError) as err:
        train(data, basis, TrainConfig(learning_rate=1e12, epochs=8, batch_size=64, seed=0))
    assert str(err.value) == "validation loss diverged at epoch 6"


def test_train_reports_the_first_non_finite_block():
    # without a validation split, the weights overflow in the next epoch
    data = take(rank_one_task(), slice(100))
    basis = fit_row_basis(data)
    cfg = TrainConfig(learning_rate=1e12, epochs=8, batch_size=64, seed=0, val_fraction=0.0)
    with pytest.raises(TrainingError) as err:
        train(data, basis, cfg)
    assert str(err.value) == "training diverged at epoch 7: non-finite parameter block a"


def test_train_without_validation_split():
    data = take(rank_one_task(), slice(150))
    basis = fit_row_basis(data)
    cfg = TrainConfig(epochs=15, val_fraction=0.0, seed=2, **BATCHES_OF_64)
    result = train(data, basis, cfg)
    assert len(result.trace) == 15
    assert all(r.val_mse is None for r in result.trace)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=0.7)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


@pytest.mark.parametrize("field", ["epochs", "batch_size", "patience", "seed"])
@pytest.mark.parametrize("value", [0.5, 2.5, 3.0, True, False, "3"])
def test_train_config_counts_must_be_integers(field, value):
    # patience=0.5 once acted as patience 0; batch_size or epochs 2.5 ended in
    # a bare TypeError inside train; batch_size=True passed the > 0 check.
    # The wording is the JSON value rule's, the one a config and an artifact meet.
    with pytest.raises(ValueError, match=re.escape(f"{field} is {value!r}, expected an integer")):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", ["learning_rate", "val_fraction"])
@pytest.mark.parametrize("value", [True, False, "0.2", None, [0.1], math.inf, -math.inf, math.nan])
def test_train_config_rates_must_be_real_numbers(field, value):
    # learning_rate=True once trained at step size 1.0 and wrote an artifact
    # that load_model rejects; learning_rate="0.2" ended in a bare TypeError;
    # learning_rate=inf failed only inside train and wrote an unloadable artifact.
    expected = "a finite number" if isinstance(value, float) else "a number"
    with pytest.raises(ValueError, match=re.escape(f"{field} is {value!r}, expected {expected}")):
        TrainConfig(**{field: value})


# --- serialization ----------------------------------------------------------


def test_save_load_round_trip_bitwise(tmp_path):
    from fmlp_rul.preprocess import test_instances

    write_subset(tmp_path, "FD002", n_train=6, n_test=5)
    subset = load_subset(tmp_path, "FD002")
    condition_model, scaler = fit_preprocessing(subset.train)
    data = training_instances(subset, condition_model, scaler)
    basis = fit_basis(data, sensor_ids=scaler.sensor_ids)
    model = train(data, basis, TrainConfig(epochs=10, seed=4)).model
    pipeline = Pipeline(condition_model, scaler, model, "FD002")
    reloaded = load_model(io.StringIO(json.dumps(pipeline_to_doc(pipeline), indent=1)))
    loaded = reloaded.network
    assert np.array_equal(loaded.params, model.params)
    assert np.array_equal(loaded.a, model.a)
    assert np.array_equal(loaded.b, model.b)
    assert np.array_equal(loaded.beta, model.beta)
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(loaded, name), getattr(model, name))
    assert np.array_equal(loaded.basis.grid, model.basis.grid)
    for before, after in zip(model.basis.sensors, loaded.basis.sensors):
        for name in ("mean", "eigenvalues", "components"):
            assert np.array_equal(getattr(before, name), getattr(after, name))
    assert np.array_equal(loaded.predict_many(data), model.predict_many(data))
    assert loaded.train_config == model.train_config
    for name in _condition_shapes():
        assert np.array_equal(
            getattr(reloaded.condition_model, name), getattr(condition_model, name)
        )
    assert np.array_equal(reloaded.scaler.minimum, scaler.minimum)
    assert np.array_equal(reloaded.scaler.maximum, scaler.maximum)
    assert reloaded.subset_id == "FD002"
    assert reloaded.window_length == subset.window_length == 21
    # predict is the last window of each trajectory through the network
    expected = model.predict_many(test_instances(subset, condition_model, scaler))
    assert len(expected) == 5
    assert np.array_equal(pipeline.predict(subset.test), expected)
    assert np.array_equal(reloaded.predict(subset.test), expected)
    assert reloaded.predict(split_of([])).shape == (0,)


def test_pipeline_predict_equals_each_units_own_last_window(fd002_pipeline, fd002_subset):
    # One gather over the split against each unit's last M raw rows, left-padded
    # with its first row when it is shorter, transformed on their own.
    pipeline, m = fd002_pipeline, fd002_pipeline.window_length
    units = list(fd002_subset.test)
    split = split_of([
        unit_record(1, units[0].op_settings[:60], units[0].sensors[:60]),  # longer than M
        unit_record(2, units[1].op_settings[:1], units[1].sensors[:1]),  # one row
        unit_record(3, units[2].op_settings[:m], units[2].sensors[:m]),  # exactly M
        unit_record(4, units[3].op_settings[:9], units[3].sensors[:9]),  # shorter than M
        units[4],
    ])
    curves = []
    for unit in split:
        rows = np.maximum(np.arange(len(unit.cycles) - m, len(unit.cycles)), 0)
        window = transform_rows(
            unit.op_settings[rows], unit.sensors[rows], pipeline.condition_model, pipeline.scaler
        )
        curves.append(window.T)
    expected = Windows(np.stack(curves), labels=None)
    got = last_windows(split, m, pipeline.condition_model, pipeline.scaler)
    assert got.curves.tobytes() == expected.curves.tobytes()
    assert pipeline.predict(split).tobytes() == pipeline.network.predict_many(expected).tobytes()


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """A 2-epoch pipeline on a 4-engine FD001 corpus, and its training windows."""
    root = tmp_path_factory.mktemp("small_fd001")
    write_subset(root, "FD001", n_train=4, n_test=2)
    subset = load_subset(root, "FD001")
    condition_model, scaler = fit_preprocessing(subset.train)
    data = training_instances(subset, condition_model, scaler)
    basis = fit_basis(data, sensor_ids=scaler.sensor_ids)
    model = train(data, basis, TrainConfig(epochs=2, seed=4)).model
    return Pipeline(condition_model, scaler, model, "FD001"), data


@pytest.mark.parametrize("seed", [4, 5])
def test_epoch_budget_only_truncates_the_run(small_pipeline, seed):
    # The budget sets nothing but the last epoch: no step size, batch order or
    # schedule reads it, so a run of E epochs is the first E epochs of a run of
    # 2E, bit for bit, while patience cannot end either one. The default epoch
    # count was chosen from runs of several budgets that rely on this.
    pipeline, data = small_pipeline
    basis = pipeline.network.basis
    short = TrainConfig(epochs=10, patience=20, seed=seed)
    assert fit_rows(short.val_fraction, len(data)) > short.batch_size  # a short last batch too
    rows = [
        [(r.epoch, r.train_mse, r.val_mse) for r in train(data, basis, cfg).trace]
        for cfg in (short, dataclasses.replace(short, epochs=2 * short.epochs))
    ]
    assert len(rows[1]) == 2 * short.epochs
    assert rows[0] == rows[1][: short.epochs]


def _columns(basis, keep):
    """The beta columns of the basis sensors at indices ``keep``."""
    slices = component_slices(basis)
    return [c for i in keep for c in range(slices[i].start, slices[i].stop)]


def _with_sensors(network, keep):
    """The network over the basis sensors at indices ``keep``, with their beta columns."""
    basis = network.basis
    sensors = EigenBasis([basis.sensors[i] for i in keep], basis.fve_cutoff, basis.component_cap)
    return dataclasses.replace(network, beta=network.beta[:, _columns(basis, keep)], basis=sensors)


@pytest.mark.parametrize("kind", [int, np.float64])
def test_library_train_config_round_trips(kind, small_pipeline):
    # int and numpy-float rates pass TrainConfig and come back from the artifact
    pipeline, data = small_pipeline
    rates = {"learning_rate": kind(1), "val_fraction": kind(0)}
    cfg = TrainConfig(epochs=2, seed=4, **rates)
    model = train(data, pipeline.network.basis, cfg).model
    pipeline = dataclasses.replace(pipeline, network=model)
    reloaded = load_model(io.StringIO(json.dumps(pipeline_to_doc(pipeline))))
    assert reloaded.network.train_config == cfg
    assert np.array_equal(reloaded.network.params, pipeline.network.params)


# Each of these built a pipeline whose artifact load_model rejects; now the
# constructor raises, naming the field.
@pytest.mark.parametrize("label_scale", [130.9, -5.0])
def test_train_rejects_label_scale_an_artifact_cannot_hold(small_pipeline, label_scale):
    pipeline, data = small_pipeline
    with pytest.raises(ValueError, match=f"^label_scale is {label_scale}, expected > 0 and a"):
        train(data, pipeline.network.basis, TrainConfig(epochs=1), label_scale=label_scale)


@pytest.mark.parametrize("config", [None, {"seed": 3}])
def test_network_requires_a_train_config(small_pipeline, config):
    # Both once built a network: None then wrote a null train_config, and a
    # dict made model_to_doc raise a bare TypeError.
    network = small_pipeline[0].network
    with pytest.raises(ValueError, match=r"^train_config is .*, expected a TrainConfig$"):
        dataclasses.replace(network, train_config=config)


def test_pipeline_rejects_unknown_subset_id(small_pipeline):
    pipeline, _ = small_pipeline
    with pytest.raises(ValueError, match="^subset_id is 'FD009', expected one of"):
        dataclasses.replace(pipeline, subset_id="FD009")


def test_pipeline_rejects_basis_over_other_sensors_than_the_scaler(small_pipeline):
    # Pipeline.predict once raised a bare "windows have 15 curves, basis has 3".
    pipeline, _ = small_pipeline
    assert len(pipeline.scaler.sensor_ids) == 15 and pipeline.scaler.sensor_ids[:3] == [2, 3, 4]
    network = _with_sensors(pipeline.network, [0, 1, 2])
    with pytest.raises(ValueError, match=re.escape("basis covers sensors [2, 3, 4], but the")):
        dataclasses.replace(pipeline, network=network)
    with pytest.raises(ValueError, match="^sensors is empty, expected at least one sensor$"):
        _with_sensors(pipeline.network, [])


def _mostly(valid, other=st.one_of(
    st.booleans(), st.none(), st.text(max_size=4), st.integers(-3, 2**65),
    st.floats(allow_nan=True, allow_infinity=True),
)):
    """A value from ``valid`` nine times in ten, else from ``other``: about a
    third of the examples then have every field valid."""
    return st.integers(0, 9).flatmap(lambda i: other if i == 0 else valid)


# Some basis sensors dropped, or all of them.
_DROPS = st.sets(st.integers(0, N_SENSORS - 1), min_size=1) | st.just(set(range(N_SENSORS)))


_DEFAULT_CONFIG = dataclasses.asdict(TrainConfig())

# Every array of a pipeline, by artifact object and field; a "basis" field is
# one sensor's.
_ARRAYS = [
    *(("condition_model", name) for name in _condition_shapes()),
    ("scaler", "minimum"), ("scaler", "maximum"),
    *(("basis", name) for name in ("mean", "eigenvalues", "components")),
    *(("network", name) for name in BLOCKS),
]


@settings(max_examples=200, deadline=None)
@given(
    label_scale=_mostly(st.sampled_from([130.0, 1.0, 1e300, 2**53])),
    subset_id=_mostly(st.sampled_from(SUBSET_IDS), st.sampled_from(["FD009", "fd001", "", None])),
    dropped=_mostly(st.just(set()), _DROPS),
    config=_mostly(st.fixed_dictionaries({
        f.name: _mostly(st.just(f.default)) for f in dataclasses.fields(TrainConfig)
    }), st.none()),
    # One leaf of one array set to a non-finite value: (array, leaf index, value).
    leaf=st.none() | st.tuples(
        st.sampled_from(_ARRAYS), st.integers(0, 2**16),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    ),
)
# One non-finite leaf with every other field valid, for each constructor.
@example(130.0, "FD001", set(), _DEFAULT_CONFIG, (("condition_model", "target_scale"), 3, math.inf))
@example(130.0, "FD001", set(), _DEFAULT_CONFIG, (("scaler", "maximum"), 3, math.inf))
@example(130.0, "FD001", set(), _DEFAULT_CONFIG, (("basis", "components"), 5, -math.inf))
@example(130.0, "FD001", set(), _DEFAULT_CONFIG, (("network", "b2"), 0, math.nan))
def test_construction_fails_exactly_when_its_artifact_would_not_load(
    small_pipeline, label_scale, subset_id, dropped, config, leaf
):
    pipeline, _ = small_pipeline
    basis = pipeline.network.basis
    keep = [i for i in range(len(basis.sensors)) if i not in dropped]
    doc = pipeline_to_doc(pipeline)
    doc.update(label_scale=label_scale, subset_id=subset_id, train_config=config)
    doc["basis"]["sensors"] = [doc["basis"]["sensors"][i] for i in keep]
    doc["network"]["beta"] = pipeline.network.beta[:, _columns(basis, keep)].tolist()
    group, block = None, {}
    if leaf is not None:
        (group, name), i, value = leaf
        owner, sensors = doc[group], doc["basis"]["sensors"]
        if group == "basis":  # sensor i, if any is kept
            owner = sensors[i % len(sensors)] if sensors else {name: []}
        cells = np.array(owner[name], dtype=float)
        if cells.size:
            cells.flat[i % cells.size] = value
        owner[name] = cells.tolist()
        block = {name: cells}
    try:  # the same values, given to the constructors
        condition_model = dataclasses.replace(
            pipeline.condition_model, **(block if group == "condition_model" else {})
        )
        scaler = dataclasses.replace(pipeline.scaler, **(block if group == "scaler" else {}))
        network = _with_sensors(pipeline.network, keep)
        if group == "basis":
            sensors = list(network.basis.sensors)
            j = i % len(sensors)
            sensors[j] = dataclasses.replace(sensors[j], **block)
            network = dataclasses.replace(
                network, basis=dataclasses.replace(network.basis, sensors=sensors)
            )
        network = dataclasses.replace(
            network, label_scale=label_scale,
            train_config=None if config is None else TrainConfig(**config),
            **(block if group == "network" else {}),
        )
        built = Pipeline(condition_model, scaler, network, subset_id)
    except ValueError:
        with pytest.raises(ArtifactError):
            load_model(io.StringIO(json.dumps(doc)))
        return
    written = json.dumps(pipeline_to_doc(built))
    for text in (written, json.dumps(doc)):
        loaded = load_model(io.StringIO(text))
        assert json.dumps(pipeline_to_doc(loaded)) == written
        assert np.array_equal(loaded.network.params, built.network.params)


def test_load_rejects_truncated_artifact():
    data = take(rank_one_task(), slice(150))
    basis = fit_row_basis(data)
    model = train(data, basis, TrainConfig(epochs=5, seed=4)).model
    text = json.dumps(model_to_doc(model), indent=1)
    with pytest.raises(ArtifactError):
        load_model(io.StringIO(text[: len(text) // 2]))
    # a bare network is not a pipeline: it has no preprocessing state
    with pytest.raises(ArtifactError, match="condition_model is null"):
        load_model(io.StringIO(text))


def test_load_rejects_unknown_schema():
    with pytest.raises(ArtifactError):
        load_model(io.StringIO('{"schema": "fmlp-artifact/999"}'))


# --- behavior on the desk-scale corpus ------------------------------------


def test_trained_model_near_failure_estimate(fd001_pipeline, fd001_subset):
    train = split_of([fd001_subset.train[0]])
    subset = DataSubset("FD001", train=train, test=split_of([]), test_rul=[])
    windows = training_instances(
        subset, fd001_pipeline.condition_model, fd001_pipeline.scaler
    )
    assert windows.labels[-1] == 0.0
    assert fd001_pipeline.network.predict_many(windows)[-1] < 30.0


def test_estimates_sharpen_near_end_of_life(fd001_pipeline, fd001_subset):
    predictions = fd001_pipeline.predict(fd001_subset.test)
    ruls = np.array(fd001_subset.test_rul, dtype=float)
    errors = np.abs(predictions - np.minimum(ruls, 130.0))
    near_cut, far_cut = np.quantile(ruls, [0.25, 0.75])
    near_mae = errors[ruls <= near_cut].mean()
    far_mae = errors[ruls >= far_cut].mean()
    assert near_mae < far_mae
