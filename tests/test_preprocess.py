import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_oracles import reference_condition_fit

from fmlp_rul import preprocess
from fmlp_rul.cmapss import DataSubset, EngineTrajectory
from fmlp_rul.preprocess import (
    ConditionFitConfig,
    ConditionModel,
    FunctionalInstance,
    apply_minmax,
    fit_condition_regressors,
    fit_minmax,
    last_window,
    linear_rul,
    piecewise_rul,
    remove_condition_effect,
    slide_windows,
    transform_trajectory,
)


def make_traj(unit_id, settings, sensors):
    n = len(sensors)
    return EngineTrajectory(
        unit_id=unit_id,
        cycles=np.arange(1, n + 1),
        op_settings=np.asarray(settings, dtype=float),
        sensors=np.asarray(sensors, dtype=float),
    )


def constant_predictor(values, n_sensors=21, hidden=8):
    """A ConditionModel that predicts a fixed value per sensor."""
    values = np.broadcast_to(np.asarray(values, dtype=float), (n_sensors,))
    return ConditionModel(
        setting_min=np.zeros(3),
        setting_max=np.ones(3),
        target_mean=np.zeros(n_sensors),
        target_scale=np.ones(n_sensors),
        w1=np.zeros((n_sensors, 3, hidden)),
        b1=np.zeros((n_sensors, hidden)),
        w2=np.zeros((n_sensors, hidden)),
        b2=values.copy(),
        config=ConditionFitConfig(),
    )


# --- condition regressors -------------------------------------------------


def test_regressor_learns_exact_linear_map():
    rng = np.random.Generator(np.random.PCG64(5))
    n = 400
    settings = np.column_stack(
        [rng.uniform(0, 1, n), rng.uniform(0, 2, n), np.full(n, 100.0)]
    )
    target = 2.0 * settings[:, 0] + 1.0
    sensors = np.tile(target[:, None], (1, 21))
    traj = make_traj(1, settings, sensors)
    model = fit_condition_regressors(
        [traj], ConditionFitConfig(hidden_units=16, epochs=6000, learning_rate=0.1, seed=3)
    )
    residual = model.predict(settings) - target[:, None]
    worst_rmse = np.sqrt((residual**2).mean(axis=0)).max()
    assert worst_rmse < 1e-2


def test_regressor_constant_settings_predicts_mean():
    rng = np.random.Generator(np.random.PCG64(6))
    n = 600
    settings = np.tile([0.0023, 0.0004, 100.0], (n, 1)) + rng.normal(
        0, 1e-3, (n, 3)
    ) * np.array([1.0, 1.0, 0.0])
    sensors = 50.0 + np.arange(21) * 3.0 + rng.normal(0, 1.5, size=(n, 21))
    traj = make_traj(1, settings, sensors)
    model = fit_condition_regressors([traj], ConditionFitConfig(seed=1))
    pred = model.predict(settings)
    mean = sensors.mean(axis=0)
    std = sensors.std(axis=0)
    assert np.max(np.abs(pred - mean) / std) < 0.1
    residual = remove_condition_effect(traj, model).sensors
    centered = sensors - mean
    assert np.max(np.abs(residual - centered) / std) < 0.1


def test_regressor_deterministic():
    rng = np.random.Generator(np.random.PCG64(2))
    settings = rng.uniform(0, 1, (120, 3))
    sensors = rng.uniform(0, 1, (120, 21))
    traj = make_traj(1, settings, sensors)
    cfg = ConditionFitConfig(epochs=50, seed=13)
    m1 = fit_condition_regressors([traj], cfg)
    m2 = fit_condition_regressors([traj], cfg)
    for field in ("w1", "b1", "w2", "b2", "target_mean", "target_scale"):
        assert np.array_equal(getattr(m1, field), getattr(m2, field))


def test_regressor_matches_reference_fit():
    # Repeated setting rows exercise the grouping; more distinct rows than
    # one tile holds exercise the accumulation across tiles.
    rng = np.random.Generator(np.random.PCG64(8))
    cfg = ConditionFitConfig(hidden_units=8, epochs=50, learning_rate=0.05, seed=4)
    distinct = rng.uniform(0, 1, (300, 3)) * [42.0, 0.84, 100.0]
    settings = distinct[rng.integers(0, len(distinct), 900)]
    sensors = np.sin(settings @ rng.normal(0, 0.1, (3, 21))) + rng.normal(
        0, 0.1, (900, 21)
    )
    train = [
        make_traj(u + 1, settings[rows], sensors[rows])
        for u, rows in enumerate(np.array_split(np.arange(900), 3))
    ]
    n_distinct = len(np.unique(settings, axis=0))
    assert n_distinct < len(settings)
    assert n_distinct > preprocess._TILE_BYTES // (8 * 21 * cfg.hidden_units)

    model = fit_condition_regressors(train, cfg)
    expected = reference_condition_fit(train, cfg)
    for field in ("w1", "b1", "w2", "b2"):
        np.testing.assert_allclose(
            getattr(model, field), getattr(expected, field), rtol=0, atol=1e-12
        )


def test_regressor_rejects_empty_input():
    with pytest.raises(ValueError):
        fit_condition_regressors([])


# --- condition removal ----------------------------------------------------


def test_removal_zero_model_is_identity():
    rng = np.random.Generator(np.random.PCG64(3))
    traj = make_traj(4, rng.uniform(0, 1, (30, 3)), rng.uniform(0, 1, (30, 21)))
    out = remove_condition_effect(traj, constant_predictor(0.0))
    assert np.array_equal(out.sensors, traj.sensors)
    assert np.array_equal(out.op_settings, traj.op_settings)


def test_removal_exact_fit_gives_zero_residual():
    values = np.arange(21, dtype=float)
    sensors = np.tile(values, (25, 1))
    traj = make_traj(2, np.zeros((25, 3)), sensors)
    out = remove_condition_effect(traj, constant_predictor(values))
    assert np.max(np.abs(out.sensors)) == 0.0


def test_removal_exposes_trend_on_multicondition_data(fd002_model, fd002_subset):
    # after removal, the degradation trend dominates the condition switching
    model = fd002_model.condition_model
    traj = fd002_subset.train[0]
    residual = remove_condition_effect(traj, model).sensors
    tail = residual[-120:, 1]  # sensor 2, near end of life
    corr = np.corrcoef(tail, np.arange(tail.size))[0, 1]
    assert corr > 0.5


def test_removal_neutral_under_single_condition(fd001_model, fd001_subset):
    model = fd001_model.condition_model
    scaler = fd001_model.scaler
    traj = fd001_subset.train[3]
    removed = remove_condition_effect(traj, model)
    for s in scaler.retained:
        corr = np.corrcoef(traj.sensors[:, s], removed.sensors[:, s])[0, 1]
        assert corr > 0.999


# --- min-max scaling --------------------------------------------------------


def test_fit_minmax_simple_values():
    sensors = np.tile([[2.0], [4.0], [6.0]], (1, 21))
    traj = make_traj(1, np.zeros((3, 3)), sensors)
    scaler = fit_minmax([traj])
    assert scaler.minimum[0] == 2.0
    assert scaler.maximum[0] == 6.0


def test_fit_minmax_flags_constant_sensor():
    sensors = np.ones((4, 21))
    sensors[:, 5] = [1.0, 2.0, 3.0, 4.0]
    traj = make_traj(1, np.zeros((4, 3)), sensors)
    scaler = fit_minmax([traj])
    assert scaler.constant_mask[0]
    assert not scaler.constant_mask[5]
    assert list(scaler.retained) == [5]
    assert scaler.sensor_ids == [6]


def test_fd001_constant_sensor_fixture(fd001_model):
    # regression fixture: the corpus keeps sensors 1,5,10,16,18,19 constant
    flagged = set(np.nonzero(fd001_model.scaler.constant_mask)[0] + 1)
    assert flagged == {1, 5, 10, 16, 18, 19}


def test_apply_minmax_endpoints_and_midpoint():
    sensors = np.tile([[2.0], [4.0], [6.0]], (1, 21))
    traj = make_traj(1, np.zeros((3, 3)), sensors)
    scaler = fit_minmax([traj])
    out = apply_minmax(traj, scaler)
    assert out.scaled
    assert np.allclose(out.sensors[:, 0], [0.0, 0.5, 1.0])


def test_apply_minmax_no_clamp_outside_range():
    train = make_traj(1, np.zeros((2, 3)), np.tile([[2.0], [6.0]], (1, 21)))
    scaler = fit_minmax([train])
    test = make_traj(2, np.zeros((1, 3)), np.full((1, 21), 1.0))
    out = apply_minmax(test, scaler)
    assert out.sensors[0, 0] == pytest.approx(-0.25)


def test_apply_minmax_rejects_double_application():
    traj = make_traj(1, np.zeros((2, 3)), np.tile([[2.0], [6.0]], (1, 21)))
    scaler = fit_minmax([traj])
    once = apply_minmax(traj, scaler)
    with pytest.raises(ValueError):
        apply_minmax(once, scaler)


def test_removal_rejected_after_scaling():
    traj = make_traj(1, np.zeros((2, 3)), np.tile([[2.0], [6.0]], (1, 21)))
    scaler = fit_minmax([traj])
    scaled = apply_minmax(traj, scaler)
    with pytest.raises(ValueError):
        remove_condition_effect(scaled, constant_predictor(0.0))


# --- labels -----------------------------------------------------------------


@pytest.mark.parametrize(
    "c,n,expected", [(114, 114, 0), (1, 114, 113), (50, 114, 64)]
)
def test_linear_rul(c, n, expected):
    assert linear_rul(c, n) == expected


def test_linear_rul_out_of_range():
    with pytest.raises(ValueError):
        linear_rul(0, 10)
    with pytest.raises(ValueError):
        linear_rul(11, 10)


def test_piecewise_rul_cap():
    assert piecewise_rul(1, 161) == 130  # linear label 160
    assert piecewise_rul(1, 41) == 40
    assert piecewise_rul(1, 250) == 130


@settings(max_examples=40, deadline=None)
@given(st.integers(31, 300))
def test_piecewise_labels_monotone(n_cycles):
    m = 31
    n = n_cycles - m + 1
    labels = [piecewise_rul(c, n) for c in range(1, n + 1)]
    assert labels[-1] == 0
    for a, b in zip(labels, labels[1:]):
        assert b <= a
        if a < 130:
            assert a - b == 1


# --- windowing ----------------------------------------------------------------


def degradation_traj(n, unit_id=1):
    rng = np.random.Generator(np.random.PCG64(unit_id))
    sensors = rng.uniform(0, 1, (n, 21))
    return make_traj(unit_id, np.zeros((n, 3)), sensors)


def test_slide_windows_counting_example():
    traj = degradation_traj(144)
    windows = slide_windows(traj, 31)
    assert len(windows) == 114
    assert windows[0].label == 113.0
    assert windows[-1].label == 0.0
    assert windows[0].engine_ref == (1, 1)
    assert np.array_equal(windows[2].curves, traj.sensors[2:33].T)


def test_slide_windows_single_window():
    windows = slide_windows(degradation_traj(31), 31)
    assert len(windows) == 1
    assert windows[0].label == 0.0


def test_slide_windows_too_short():
    assert slide_windows(degradation_traj(30), 31) == []


def test_slide_windows_sensor_selection():
    traj = degradation_traj(40)
    keep = np.array([0, 7, 20])
    windows = slide_windows(traj, 31, sensor_indices=keep)
    assert windows[0].curves.shape == (3, 31)
    assert np.array_equal(windows[0].curves, traj.sensors[:31, keep].T)


def test_last_window_tail():
    traj = degradation_traj(200)
    inst = last_window(traj, 21)
    assert inst.label is None
    assert inst.engine_ref == (1, 180)
    assert np.array_equal(inst.curves, traj.sensors[179:].T)


def test_last_window_pads_short_trajectory():
    traj = degradation_traj(15)
    inst = last_window(traj, 19)
    assert inst.curves.shape == (21, 19)
    for j in range(4):
        assert np.array_equal(inst.curves[:, j], traj.sensors[0])
    assert np.array_equal(inst.curves[:, 4:], traj.sensors.T)


def test_last_window_whole_trajectory():
    traj = degradation_traj(31)
    inst = last_window(traj, 31)
    assert np.array_equal(inst.curves, traj.sensors.T)


def test_test_instances_match_whole_trajectory_path(fd002_subset):
    model, scaler = preprocess.fit_preprocessing(
        fd002_subset.train[:6], ConditionFitConfig(epochs=20)
    )
    full = fd002_subset.test[0]
    short = EngineTrajectory(
        full.unit_id, full.cycles[:9], full.op_settings[:9], full.sensors[:9]
    )
    subset = DataSubset(
        "FD002", train=[], test=[short, *fd002_subset.test[:40]], test_rul=[1] * 41
    )
    got = preprocess.test_instances(subset, model, scaler)
    want = [
        last_window(transform_trajectory(t, model, scaler), 21, scaler.retained)
        for t in subset.test
    ]
    assert got[0].curves.shape == (len(scaler.retained), 21)
    for g, w in zip(got, want, strict=True):
        assert g.engine_ref == w.engine_ref
        assert g.label is None
        assert np.array_equal(g.grid, w.grid)
        np.testing.assert_allclose(g.curves, w.curves, rtol=0, atol=1e-12)


def test_training_curves_stay_in_unit_interval(fd001_model, fd001_subset):
    traj = transform_trajectory(
        fd001_subset.train[10], fd001_model.condition_model, fd001_model.scaler
    )
    windows = slide_windows(traj, 31, sensor_indices=fd001_model.scaler.retained)
    stacked = np.stack([w.curves for w in windows])
    assert stacked.min() >= -1e-12
    assert stacked.max() <= 1.0 + 1e-12


def test_functional_instance_shape_check():
    with pytest.raises(ValueError):
        FunctionalInstance(
            grid=np.arange(5.0), curves=np.zeros((2, 4)), label=None, engine_ref=(1, 1)
        )
