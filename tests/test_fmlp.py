import dataclasses
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmapss_synth import write_subset
from model_oracles import (
    component_slices,
    discrete_integral,
    gradients,
    loss,
    make_instances,
    max_gradient_error,
    random_model_and_batch,
    reference_project,
    reference_train,
    take,
    weight_curve,
)

from fmlp_rul.cmapss import DataSubset, load_subset
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
from fmlp_rul.fpca import fit_basis
from fmlp_rul.numerics import seeded_rng
from fmlp_rul.preprocess import fit_preprocessing, training_instances


def constant_basis(m=8, n=6):
    """Basis whose single eigenfunction is the constant function 1."""
    offsets = np.linspace(-1.0, 1.0, n)
    curves = (np.zeros(m) + offsets[:, None])[:, None, :]
    return fit_basis(make_instances(curves))


def two_mode_basis(m=24, n=400):
    """Basis with two selected components (score variances 4 and 3)."""
    grid = np.arange(1, m + 1) / m
    mode1 = np.sqrt(2.0) * np.sin(2 * np.pi * grid)
    mode2 = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
    rng = seeded_rng(17)
    curves = (
        np.outer(rng.normal(0, 2.0, n), mode1) + np.outer(rng.normal(0, np.sqrt(3.0), n), mode2)
    )[:, None, :]
    return fit_basis(make_instances(curves))


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
    model = init_model(basis, seeded_rng(3), n_functional=2)
    model.beta[0, :] = [1.0, 1.0]
    curve = weight_curve(model, 0, 0)
    assert discrete_integral(curve, curve) == pytest.approx(2.0, abs=1e-8)


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
    model = init_model(basis, seeded_rng(5), n_functional=1)
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


def rank_one_task():
    m, n = 20, 600
    shape = 0.5 + 0.5 * np.sin(np.linspace(0, np.pi, m))
    rng = seeded_rng(11)
    xi = rng.uniform(0.0, 1.0, n)
    curves = (np.outer(xi, shape) + rng.normal(0, 0.005, (n, m)))[:, None, :]
    return make_instances(curves, 130.0 * xi)


def test_train_solves_rank_one_task():
    data = rank_one_task()
    basis = fit_basis(data)
    cfg = TrainConfig(learning_rate=0.2, epochs=3000, batch_size=32, patience=300, seed=3)
    result = train(data, basis, cfg)
    assert np.sqrt(loss(result.model, data)) < 0.05


def test_train_deterministic_trace():
    data = take(rank_one_task(), slice(200))
    basis = fit_basis(data)
    cfg = TrainConfig(epochs=30, seed=21)
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
    basis = fit_basis(data)
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
        (3, {}),
        (4, {}),
        (5, {"val_fraction": 0.0}),
        (6, {"patience": 2}),
        (7, {"batch_size": 256}),  # one batch per epoch: larger than the 180 fit windows
    ],
)
def test_train_matches_reference_loop(seed, options):
    # the same draws and updates as the plain per-block loop, to rounding
    cfg = TrainConfig(epochs=40, seed=seed, **options)
    trace = assert_train_matches_reference(take(rank_one_task(), slice(200)), cfg)
    if "patience" in options:
        # stopped early, so the result is an earlier epoch's snapshot
        assert len(trace) < cfg.epochs


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
    cfg = TrainConfig(epochs=3, seed=8, batch_size=batch_size, val_fraction=val_fraction)
    assert_train_matches_reference(take(rank_one_task(), slice(40)), cfg)


@pytest.mark.parametrize("patience", [1, 2, 3])
def test_early_stopping_runs_patience_plus_one_stale_epochs(patience):
    # training stops at the (patience + 1)-th epoch in a row without a better val MSE
    data = take(rank_one_task(), slice(200))
    cfg = TrainConfig(epochs=40, seed=6, patience=patience)
    trace = train(data, fit_basis(data), cfg).trace
    best_epoch = min(trace, key=lambda row: row.val_mse).epoch
    assert len(trace) == best_epoch + patience + 1 < cfg.epochs


def test_train_reports_divergence_epoch():
    data = take(rank_one_task(), slice(100))
    basis = fit_basis(data)
    with pytest.raises(TrainingError) as err:
        train(data, basis, TrainConfig(learning_rate=1e12, epochs=8, seed=0))
    message = str(err.value)
    assert message.startswith("training diverged at epoch 7: ")
    model = init_model(basis, seeded_rng(0))
    names = [name for name, _ in model.blocks(model.params)]
    assert any(message.endswith(f"parameter block {name}") for name in names)


def test_train_without_validation_split():
    data = take(rank_one_task(), slice(150))
    basis = fit_basis(data)
    result = train(data, basis, TrainConfig(epochs=15, val_fraction=0.0, seed=2))
    assert len(result.trace) == 15
    assert all(r.val_mse is None for r in result.trace)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=0.7)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


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
    assert reloaded.predict([]).shape == (0,)


def test_load_rejects_truncated_artifact():
    data = take(rank_one_task(), slice(150))
    basis = fit_basis(data)
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
    subset = DataSubset("FD001", train=fd001_subset.train[:1], test=[], test_rul=[])
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
