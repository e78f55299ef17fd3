import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_oracles import split_of, unit_record

from fmlp_rul import preprocess
from fmlp_rul.cmapss import DataSubset
from fmlp_rul.errors import TrainingError
from fmlp_rul.preprocess import (
    CONDITION_FEATURES,
    CONDITION_RIDGE,
    ConditionModel,
    MinMaxScaler,
    Windows,
    fit_condition_regressors,
    fit_preprocessing,
    last_windows,
    piecewise_rul,
    sliding_windows,
    transform_rows,
)


def make_traj(unit_id, settings, sensors):
    """A one-unit split with cycles 1..n."""
    return split_of([unit_record(unit_id, settings, sensors)])


def constant_predictor(values, n_sensors=21):
    """A ConditionModel that predicts a fixed value per sensor."""
    values = np.broadcast_to(np.asarray(values, dtype=float), (n_sensors,))
    return ConditionModel(
        setting_min=np.zeros(3),
        setting_max=np.ones(3),
        target_mean=np.zeros(n_sensors),
        target_scale=np.ones(n_sensors),
        weights=np.zeros((n_sensors, CONDITION_FEATURES)),
        bias=values.copy(),
    )


def quadratic_features(x):
    """x, then x_i * x_j for i <= j in row-major order: the fixed design."""
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    return np.column_stack([x] + [x[:, i] * x[:, j] for i, j in pairs])


def unit_scaler(n_sensors=21):
    """A MinMaxScaler that keeps every sensor and maps x to x."""
    return MinMaxScaler(minimum=np.zeros(n_sensors), maximum=np.ones(n_sensors))


# --- condition regressors -------------------------------------------------


def test_regressor_learns_exact_linear_map():
    rng = np.random.Generator(np.random.PCG64(5))
    n = 400
    settings = np.column_stack(
        [rng.uniform(0, 1, n), rng.uniform(0, 2, n), np.full(n, 100.0)]
    )
    target = 2.0 * settings[:, 0] + 1.0
    sensors = np.tile(target[:, None], (1, 21))
    model = fit_condition_regressors(settings, sensors)
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
    model = fit_condition_regressors(settings, sensors)
    pred = model.predict(settings)
    mean = sensors.mean(axis=0)
    std = sensors.std(axis=0)
    assert np.max(np.abs(pred - mean) / std) < 0.1
    residual = sensors - model.predict(settings)
    centered = sensors - mean
    assert np.max(np.abs(residual - centered) / std) < 0.1


def test_regressor_deterministic():
    rng = np.random.Generator(np.random.PCG64(2))
    settings = rng.uniform(0, 1, (120, 3))
    sensors = rng.uniform(0, 1, (120, 21))
    m1 = fit_condition_regressors(settings, sensors)
    m2 = fit_condition_regressors(settings, sensors)
    for field in ("weights", "bias", "target_mean", "target_scale"):
        assert np.array_equal(getattr(m1, field), getattr(m2, field))


@pytest.mark.parametrize("seed", [2, 8])
def test_regressor_solve_matches_lstsq(seed):
    # Oracle: the normal solve against lstsq on every row, each weighted 1/n,
    # stacked over ridge rows, on a design built here. Setting rows repeat, as
    # in the six-regime corpora, and each copy counts as a row of its own; the
    # last sensor is noise that BIC leaves at its mean. Both solves agree to
    # 1e-10 of the largest coefficient, on two data draws.
    rng = np.random.Generator(np.random.PCG64(seed))
    distinct = rng.uniform(0, 1, (300, 3)) * [42.0, 0.84, 100.0]
    settings = distinct[rng.integers(0, len(distinct), 900)]
    sensors = np.sin(settings @ rng.normal(0, 0.1, (3, 21))) + rng.normal(0, 0.1, (900, 21))
    sensors[:, 20] = rng.normal(0, 1, 900)
    assert len(np.unique(settings, axis=0)) < len(settings)

    model = fit_condition_regressors(settings, sensors)
    n, f = len(settings), 9
    x = (settings - settings.min(axis=0)) / np.ptp(settings, axis=0)
    y = (sensors - sensors.mean(axis=0)) / sensors.std(axis=0)
    design = np.column_stack([quadratic_features(x), np.ones(n)])
    kept = []
    for s in range(21):
        stacked = np.vstack([design / np.sqrt(n), np.sqrt(CONDITION_RIDGE) * np.eye(f + 1)])
        target = np.append(y[:, s] / np.sqrt(n), np.zeros(f + 1))
        want = np.linalg.lstsq(stacked, target, rcond=None)[0]
        rss = np.mean((y[:, s] - design @ want) ** 2)
        kept.append(n * np.log(rss / np.mean(y[:, s] ** 2)) + (f + 1) * np.log(n) < 0)
        if not kept[-1]:
            want[:] = 0.0
        got = np.append(model.weights[s], model.bias[s])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * max(1.0, np.abs(want).max()))
    assert 0 < sum(kept) < 20 and not kept[20]


# The six FD002/FD004 operating regimes: altitude (kft), Mach, TRA.
SIX_REGIMES = np.array(
    [[0.0, 0.0, 100.0], [10.0, 0.25, 100.0], [20.0, 0.7, 100.0],
     [25.0, 0.62, 60.0], [35.0, 0.84, 100.0], [42.0, 0.84, 100.0]]
)


@pytest.mark.parametrize("seed", range(8))
def test_removal_matches_regime_means_on_nonlinear_regime_map(seed):
    # Each of the six regimes shifts every sensor by an arbitrary amount, so
    # no linear map of the settings fits; removal must come within the noise
    # of subtracting each regime's own mean. The fixed features have no draw
    # of their own, so the regime of each row and all noise are drawn anew.
    shifts = np.random.Generator(np.random.PCG64(21)).normal(0, 10, (6, 21))
    rng = np.random.Generator(np.random.PCG64(seed))
    regime = rng.integers(0, 6, 3000)
    settings = SIX_REGIMES[regime] + np.round(rng.normal(0, [2e-3, 5e-4, 0.0], (3000, 3)), 4)
    noise = 0.5
    sensors = shifts[regime] + rng.normal(0, noise, (3000, 21))
    means = np.array([sensors[regime == k].mean(axis=0) for k in range(6)])
    centred = sensors - means[regime]
    linear = np.column_stack([settings, np.ones(3000)])
    linear_residual = sensors - linear @ np.linalg.lstsq(linear, sensors, rcond=None)[0]
    assert np.sqrt(np.mean((linear_residual - centred) ** 2, axis=0)).min() > noise

    model = fit_condition_regressors(settings, sensors)
    gap = sensors - model.predict(settings) - centred
    assert np.sqrt(np.mean(gap**2, axis=0)).max() < noise


@pytest.mark.parametrize("corpus", ["fd001_subset", "fd002_subset"])
def test_regressor_leaves_constant_sensors_at_their_mean(corpus, request):
    # Rounding leaves a constant sensor's standard deviation just above 0,
    # and the BIC would keep a fit of that noise; no fit is kept there.
    train = request.getfixturevalue(corpus).train
    sensors = np.concatenate([t.sensors for t in train])
    std = sensors.std(axis=0)
    constant = std < preprocess.CONSTANT_SENSOR_EPS
    assert (std[constant] > 0).any()  # the case that rounding makes
    model = fit_condition_regressors(np.concatenate([t.op_settings for t in train]), sensors)
    assert not model.weights[constant].any()
    assert not model.bias[constant].any()


def test_regressor_rejects_non_finite_solution():
    rng = np.random.Generator(np.random.PCG64(4))
    settings = rng.uniform(0, 1, (50, 3))
    settings[:2, 0] = [1e308, -1e308]  # the settings span overflows
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError):
        fit_condition_regressors(settings, rng.uniform(0, 1, (50, 21)))


def test_condition_predict_matches_per_sensor_loop():
    rng = np.random.Generator(np.random.PCG64(23))
    s = 21
    model = ConditionModel(
        setting_min=np.array([0.0, 0.0, 60.0]),
        setting_max=np.array([42.0, 0.84, 100.0]),
        target_mean=rng.uniform(10, 500, s),
        target_scale=rng.uniform(0.1, 20, s),
        weights=rng.normal(0, 1, (s, 9)),
        bias=rng.normal(0, 1, s),
    )
    settings = SIX_REGIMES[rng.integers(0, 6, 300)] + rng.normal(0, 1e-3, (300, 3))
    x = (settings - model.setting_min) / (model.setting_max - model.setting_min)
    expected = np.column_stack(
        [quadratic_features(x) @ model.weights[i] + model.bias[i] for i in range(s)]
    ) * model.target_scale + model.target_mean
    np.testing.assert_allclose(model.predict(settings), expected, rtol=1e-13, atol=0)


def test_regressor_rejects_empty_input():
    with pytest.raises(ValueError, match="need at least one training trajectory"):
        fit_preprocessing(split_of([]))


@pytest.mark.parametrize("seed", [3, 11])
def test_fit_is_the_same_for_one_unit_or_ten(seed):
    # The fit reads the training rows as one array, so where the units are cut
    # moves no bit of the condition model or the scaler. The readings move with
    # the six regimes and with a trend.
    rng = np.random.Generator(np.random.PCG64(seed))
    regime = rng.integers(0, 6, 2000)
    settings = SIX_REGIMES[regime] + np.round(rng.normal(0, [2e-3, 5e-4, 0.0], (2000, 3)), 4)
    trend = np.linspace(0, 1, 2000)[:, None] * rng.normal(0, 2, 21)
    sensors = 100.0 + rng.normal(0, 10, (6, 21))[regime] + trend + rng.normal(0, 0.5, (2000, 21))
    one, ten = (
        fit_preprocessing(split_of(
            unit_record(u + 1, settings[rows], sensors[rows])
            for u, rows in enumerate(np.array_split(np.arange(2000), n_units))
        ))
        for n_units in (1, 10)
    )
    for a, b in zip(one, ten):
        for field in dataclasses.fields(a):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


@pytest.mark.parametrize("corpus", ["fd001_subset", "fd002_subset"])
def test_scaler_spans_the_residuals_of_each_unit(corpus, request):
    # The one all-rows residual pass against residuals taken unit by unit.
    train = request.getfixturevalue(corpus).train
    model, scaler = fit_preprocessing(train)
    residuals = [t.sensors - model.predict(t.op_settings) for t in train]
    for got, want in [
        (scaler.minimum, np.min([r.min(axis=0) for r in residuals], axis=0)),
        (scaler.maximum, np.max([r.max(axis=0) for r in residuals], axis=0)),
    ]:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


# --- condition removal ----------------------------------------------------


def test_removal_zero_model_is_identity():
    rng = np.random.Generator(np.random.PCG64(3))
    traj = make_traj(4, rng.uniform(0, 1, (30, 3)), rng.uniform(0, 1, (30, 21)))
    out = traj.sensors - constant_predictor(0.0).predict(traj.op_settings)
    assert np.array_equal(out, traj.sensors)


def test_removal_exact_fit_gives_zero_residual():
    values = np.arange(21, dtype=float)
    sensors = np.tile(values, (25, 1))
    traj = make_traj(2, np.zeros((25, 3)), sensors)
    out = sensors - constant_predictor(values).predict(traj.op_settings)
    assert np.max(np.abs(out)) == 0.0


def test_removal_exposes_trend_on_multicondition_data(fd002_pipeline, fd002_subset):
    # after removal, the degradation trend dominates the condition switching
    model = fd002_pipeline.condition_model
    traj = fd002_subset.train[0]
    residual = traj.sensors - model.predict(traj.op_settings)
    tail = residual[-120:, 1]  # sensor 2, near end of life
    corr = np.corrcoef(tail, np.arange(tail.size))[0, 1]
    assert corr > 0.5


def test_removal_neutral_under_single_condition(fd001_pipeline, fd001_subset):
    model = fd001_pipeline.condition_model
    scaler = fd001_pipeline.scaler
    traj = fd001_subset.train[3]
    removed = traj.sensors - model.predict(traj.op_settings)
    for s in scaler.retained:
        corr = np.corrcoef(traj.sensors[:, s], removed[:, s])[0, 1]
        assert corr > 0.999


# --- min-max scaling --------------------------------------------------------


def test_fit_minmax_simple_values():
    # One setting row, so the condition model predicts each sensor's mean, 4.
    sensors = np.tile([[2.0], [4.0], [6.0]], (1, 21))
    _, scaler = fit_preprocessing(make_traj(1, np.zeros((3, 3)), sensors))
    assert scaler.minimum[0] == -2.0
    assert scaler.maximum[0] == 2.0


def test_fit_minmax_flags_constant_sensor():
    sensors = np.ones((4, 21))
    sensors[:, 5] = [1.0, 2.0, 3.0, 4.0]
    _, scaler = fit_preprocessing(make_traj(1, np.zeros((4, 3)), sensors))
    assert scaler.constant_mask[0]
    assert not scaler.constant_mask[5]
    assert list(scaler.retained) == [5]
    assert scaler.sensor_ids == [6]


def test_fd001_constant_sensor_fixture(fd001_pipeline):
    # regression fixture: the corpus keeps sensors 1,5,10,16,18,19 constant
    flagged = set(np.nonzero(fd001_pipeline.scaler.constant_mask)[0] + 1)
    assert flagged == {1, 5, 10, 16, 18, 19}


def test_apply_minmax_endpoints_and_midpoint():
    sensors = np.tile([[2.0], [4.0], [6.0]], (1, 21))
    scaler = MinMaxScaler(minimum=sensors.min(axis=0), maximum=sensors.max(axis=0))
    out = scaler.scale_retained(sensors)
    assert out.shape == (3, 21)
    assert np.allclose(out[:, 0], [0.0, 0.5, 1.0])


def test_apply_minmax_no_clamp_outside_range():
    scaler = MinMaxScaler(minimum=np.full(21, 2.0), maximum=np.full(21, 6.0))
    out = scaler.scale_retained(np.full((1, 21), 1.0))
    assert out[0, 0] == pytest.approx(-0.25)


def test_transform_rows_keeps_retained_sensors():
    rng = np.random.Generator(np.random.PCG64(9))
    sensors = rng.uniform(0, 1, (6, 21))
    minimum, maximum = np.zeros(21), np.full(21, 2.0)
    maximum[[3, 8]] = 0.0  # flagged constant
    out = transform_rows(
        np.zeros((6, 3)), sensors, constant_predictor(0.5), MinMaxScaler(minimum, maximum)
    )
    keep = [s for s in range(21) if s not in (3, 8)]
    assert np.array_equal(out, (sensors[:, keep] - 0.5) / 2.0)


# --- labels -----------------------------------------------------------------


@pytest.mark.parametrize(
    "c,n,expected", [(114, 114, 0), (1, 114, 113), (50, 114, 64)]
)
def test_linear_rul(c, n, expected):
    assert piecewise_rul(c, n) == expected  # every expected label is below the cap


def test_linear_rul_out_of_range():
    with pytest.raises(ValueError):
        piecewise_rul(0, 10)
    with pytest.raises(ValueError):
        piecewise_rul(11, 10)


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
    windows = sliding_windows(traj.sensors, [0, 144], 31)
    assert len(windows) == 114
    assert windows.curves.shape == (114, 21, 31)
    assert windows.labels[0] == 113.0
    assert windows.labels[-1] == 0.0
    assert np.array_equal(windows.curves[0], traj.sensors[:31].T)  # window 1 starts at cycle 1
    assert np.array_equal(windows.curves[2], traj.sensors[2:33].T)


def test_slide_windows_single_window():
    windows = sliding_windows(degradation_traj(31).sensors, [0, 31], 31)
    assert len(windows) == 1
    assert windows.labels[0] == 0.0


def test_slide_windows_too_short():
    windows = sliding_windows(degradation_traj(30).sensors, [0, 30], 31)
    assert len(windows) == 0
    assert windows.curves.shape == (0, 21, 31)


def test_slide_windows_sensor_selection():
    traj = degradation_traj(40)
    keep = np.array([0, 7, 20])
    minimum, maximum = np.zeros(21), np.zeros(21)
    maximum[keep] = 1.0  # every other sensor is flagged constant
    rows = transform_rows(
        traj.op_settings, traj.sensors, constant_predictor(0.0), MinMaxScaler(minimum, maximum)
    )
    windows = sliding_windows(rows, [0, 40], 31)
    assert windows.curves[0].shape == (3, 31)
    assert np.array_equal(windows.curves[0], traj.sensors[:31, keep].T)


def test_sliding_windows_concatenate_units():
    units = [degradation_traj(33, 3).sensors, degradation_traj(20, 5).sensors,
             degradation_traj(180, 9).sensors]
    windows = sliding_windows(np.concatenate(units), [0, 33, 53, 233], 31, t_cap=100)
    assert len(windows) == 3 + 150  # the 20-cycle unit is too short
    assert windows.curves.flags.c_contiguous
    assert list(windows.labels[:3]) == [2.0, 1.0, 0.0]
    assert windows.labels[3] == 100.0  # 149 capped
    assert windows.labels[-1] == 0.0
    # Windows 0, 2, 3 and -1 start at cycles 1 and 3 of unit 3, then 1 and 150 of unit 9.
    expected = [(0, units[0], 1), (2, units[0], 3), (3, units[2], 1), (-1, units[2], 150)]
    for i, rows, start in expected:
        assert np.array_equal(windows.curves[i], rows[start - 1 : start + 30].T)
    assert np.array_equal(windows.curves[4], units[2][1:32].T)


def test_last_window_tail():
    traj = degradation_traj(200)
    windows = last_windows(traj, 21, constant_predictor(0.0), unit_scaler())
    assert windows.labels is None
    assert np.array_equal(windows.curves[0], traj.sensors[179:].T)  # cycles 180..200


def test_last_window_pads_short_trajectory():
    traj = degradation_traj(15)
    curves = last_windows(traj, 19, constant_predictor(0.0), unit_scaler()).curves[0]
    assert curves.shape == (21, 19)
    for j in range(4):
        assert np.array_equal(curves[:, j], traj.sensors[0])
    assert np.array_equal(curves[:, 4:], traj.sensors.T)


def test_last_window_whole_trajectory():
    traj = degradation_traj(31)
    windows = last_windows(traj, 31, constant_predictor(0.0), unit_scaler())
    assert np.array_equal(windows.curves[0], traj.sensors.T)


def test_test_instances_match_whole_trajectory_path(fd002_subset):
    model, scaler = preprocess.fit_preprocessing(split_of(list(fd002_subset.train)[:6]))
    full = fd002_subset.test[0]
    short = unit_record(full.unit_id, full.op_settings[:9], full.sensors[:9])
    subset = DataSubset(
        "FD002",
        train=split_of([]),
        test=split_of([short, *list(fd002_subset.test)[1:41]]),
        test_rul=[1] * 41,
    )
    got = preprocess.test_instances(subset, model, scaler)
    assert got.curves.shape == (41, len(scaler.retained), 21)
    assert got.labels is None
    for i, t in enumerate(subset.test):
        # transform the whole trajectory, then take its last 21 rows,
        # left-padded with the first row when it is shorter
        rows = transform_rows(t.op_settings, t.sensors, model, scaler)
        pad = np.repeat(rows[:1], max(0, 21 - len(t.cycles)), axis=0)
        want = np.concatenate([pad, rows])[-21:].T
        np.testing.assert_allclose(got.curves[i], want, rtol=0, atol=1e-12)


def test_training_curves_stay_in_unit_interval(fd001_pipeline, fd001_subset):
    train = split_of(list(fd001_subset.train)[10:12])
    subset = DataSubset("FD001", train=train, test=split_of([]), test_rul=[])
    windows = preprocess.training_instances(
        subset, fd001_pipeline.condition_model, fd001_pipeline.scaler
    )
    assert len(windows) == sum(len(t.cycles) - 30 for t in subset.train)
    assert windows.curves.min() >= -1e-12
    assert windows.curves.max() <= 1.0 + 1e-12


def test_functional_instance_shape_check():
    with pytest.raises(ValueError):
        Windows(curves=np.zeros((2, 4)), labels=None)
    with pytest.raises(ValueError):
        Windows(curves=np.zeros((1, 2, 4)), labels=np.zeros(2))
