import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmapss_synth import write_subset
from model_oracles import (
    component_slices,
    discrete_integral,
    fit_row_basis,
    make_instances,
    projection_residual_mse,
    reference_mean_and_eigh,
    reference_project,
)

from fmlp_rul import fmlp
from fmlp_rul.cmapss import load_subset
from fmlp_rul.errors import DegenerateSensorError
from fmlp_rul.fpca import EigenBasis, SensorBasis, fit_basis, project, select_num_components
from fmlp_rul.numerics import seeded_rng
from fmlp_rul.preprocess import fit_preprocessing, training_instances


def instances_from_matrix(x):
    """One single-sensor window per row of an N x M matrix."""
    x = np.asarray(x, dtype=float)
    return make_instances(x[:, None, :])


# The sample mean and the 1/N sample covariance that fit_basis decomposes.


def test_sample_mean_columnwise():
    sensor = fit_row_basis(instances_from_matrix([[0.0, 2.0], [2.0, 0.0]])).sensors[0]
    assert np.array_equal(sensor.mean, [1.0, 1.0])


def test_sample_mean_monte_carlo():
    draws = seeded_rng(314).normal(size=(1000, 12))
    assert np.max(np.abs(fit_row_basis(instances_from_matrix(draws)).sensors[0].mean)) < 0.15


def test_sample_covariance_hand_computed():
    # rows (1,1) and (-1,-1): mean 0, cov = (1/2) * sum xx^T = [[1,1],[1,1]],
    # whose eigenvalues are 2 and 0 with eigenvector (1,1)/sqrt(2)
    sensor = fit_row_basis(instances_from_matrix([[1.0, 1.0], [-1.0, -1.0]])).sensors[0]
    assert np.array_equal(sensor.mean, [0.0, 0.0])
    assert sensor.eigenvalues == pytest.approx([2.0, 0.0], abs=1e-15)
    assert sensor.components == pytest.approx(np.ones((1, 2)), abs=1e-15)


def test_sample_covariance_identical_rows():
    with pytest.raises(DegenerateSensorError):
        fit_row_basis(instances_from_matrix([[2.0, 5.0, 1.0]] * 4))


def test_sample_covariance_uses_1_over_n():
    x = seeded_rng(1).normal(size=(7, 3))
    centered = x - x.mean(axis=0)
    expected = np.linalg.eigvalsh(centered.T @ centered / 7.0)[::-1]
    got = fit_row_basis(instances_from_matrix(x)).sensors[0].eigenvalues
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-15)


def test_sample_covariance_psd_and_symmetric():
    # A PSD spectrum and orthonormal eigenvectors, as a symmetric solver gives.
    x = seeded_rng(8).normal(size=(20, 6))
    sensor = fit_row_basis(instances_from_matrix(x), fve_cutoff=1.0, component_cap=6).sensors[0]
    assert (sensor.eigenvalues >= 0.0).all() and sensor.num_components == 6
    q = sensor.components / np.sqrt(6)
    assert np.allclose(q @ q.T, np.eye(6), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("subset_id", ["FD001", "FD002"])
def test_fit_basis_matches_reference_bit_for_bit(subset_id, tmp_path):
    write_subset(tmp_path, subset_id, n_train=12, n_test=1)
    subset = load_subset(tmp_path, subset_id, splits=("train",))
    model, scaler = fit_preprocessing(subset.train)
    windows = training_instances(subset, model, scaler)
    for r, sensor in enumerate(fit_basis(windows, scaler.sensor_ids).sensors):
        mean, values, vectors = reference_mean_and_eigh(windows.curves[:, r, :])
        assert np.array_equal(sensor.mean, mean)
        assert np.array_equal(sensor.eigenvalues, np.maximum(values, 0.0))
        p, m = sensor.num_components, len(mean)
        assert np.array_equal(sensor.components, np.sqrt(m) * vectors[:, :p].T)


@pytest.mark.parametrize(
    "eigenvalues,expected",
    [
        ([8.0, 1.5, 0.5], 1),  # 8/10 = 0.8 reaches the cutoff
        ([5.0, 4.0, 1.0], 2),  # 0.5 then 0.9
        ([1.0, 1.0, 1.0, 1.0, 1.0], 2),  # FVE picks 4, cap pulls back to 2
    ],
)
def test_select_num_components(eigenvalues, expected):
    assert select_num_components(np.array(eigenvalues)) == expected


def test_select_num_components_minimum_one():
    assert select_num_components(np.array([1.0, 0.0]), fve_cutoff=0.01) == 1


def test_select_num_components_degenerate():
    with pytest.raises(DegenerateSensorError):
        select_num_components(np.zeros(4))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.01, 100.0), min_size=1, max_size=10),
    st.floats(0.001, 1000.0),
)
def test_select_num_components_scale_invariant(values, c):
    lam = np.sort(np.array(values))[::-1]
    assert select_num_components(lam) == select_num_components(c * lam)


def test_fit_basis_karhunen_loeve_oracle():
    # known construction: two orthonormal modes with score variances 4 and 1
    m, n = 50, 500
    grid = np.arange(1, m + 1) / m
    mode1 = np.sqrt(2.0) * np.sin(2 * np.pi * grid)
    mode2 = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
    rng = seeded_rng(2)
    scores1 = rng.normal(0.0, 2.0, n)
    scores2 = rng.normal(0.0, 1.0, n)
    curves = np.outer(scores1, mode1) + np.outer(scores2, mode2)
    basis = fit_row_basis(instances_from_matrix(curves))
    sensor = basis.sensors[0]
    recovered = sensor.components[0]
    deviation = min(
        np.max(np.abs(recovered - mode1)), np.max(np.abs(recovered + mode1))
    )
    assert deviation < 0.1
    ratio = sensor.eigenvalues[0] / sensor.eigenvalues[1]
    assert abs(ratio - 4.0) <= 1.0


def test_fit_basis_rank_one_constant_mode():
    m = 16
    fixed = np.linspace(0.0, 1.0, m)
    offsets = np.array([0.0, 0.4, 1.1, -0.7, 2.0])
    curves = fixed + offsets[:, None]
    basis = fit_row_basis(instances_from_matrix(curves))
    sensor = basis.sensors[0]
    assert sensor.num_components == 1
    assert np.max(np.abs(np.abs(sensor.components[0]) - 1.0)) < 1e-8


def test_fit_basis_rank_bound_two_instances():
    curves = seeded_rng(3).normal(size=(2, 3))
    basis = fit_row_basis(instances_from_matrix(curves))
    eigenvalues = basis.sensors[0].eigenvalues
    assert np.sum(eigenvalues > 1e-12) <= 2


def test_fit_basis_orthonormal_under_discrete_integral():
    rng = seeded_rng(12)
    curves = rng.uniform(0, 1, size=(40, 3, 12))
    basis = fit_row_basis(make_instances(curves))
    for sensor in basis.sensors:
        p = sensor.num_components
        for i in range(p):
            for j in range(p):
                value = discrete_integral(sensor.components[i], sensor.components[j])
                assert value == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)


def test_projection_residual_matches_trailing_eigenvalues():
    rng = seeded_rng(21)
    curves = rng.normal(size=(30, 2, 8))
    insts = make_instances(curves)
    basis = fit_row_basis(insts)
    expected = 0.0
    count = 0
    for sensor in basis.sensors:
        expected += sensor.eigenvalues[sensor.num_components :].sum() / 8.0
        count += 1
    expected /= count
    actual = projection_residual_mse(basis, insts)
    assert actual == pytest.approx(expected, rel=1e-6)


def test_fit_basis_requires_two_instances():
    with pytest.raises(ValueError, match="at least two windows"):
        fit_row_basis(instances_from_matrix([[1.0, 2.0, 3.0, 4.0]]))


def _mixed_basis(rng, counts, m):
    """A basis whose sensors keep the given numbers of component rows."""
    sensors = [
        SensorBasis(i + 1, rng.normal(size=m), np.sort(rng.uniform(0, 1, m))[::-1],
                    rng.normal(size=(p, m)))
        for i, p in enumerate(counts)
    ]
    return EigenBasis(sensors, fve_cutoff=0.8, component_cap=max(counts))


@pytest.mark.parametrize("counts", [[1, 2, 1, 1, 2], [2, 1], [1], [2, 2, 2]])
def test_project_matches_per_sensor_reference_bit_for_bit(counts):
    rng = seeded_rng(11)
    m = 31
    basis = _mixed_basis(rng, counts, m)
    windows = make_instances(rng.uniform(-0.2, 1.2, size=(57, len(counts), m)))
    expected = reference_project(basis, windows)
    assert expected.shape == (57, sum(counts))
    # Into the network's [scores, 1] buffer: the first D columns, the ones left.
    x = np.ones((57, sum(counts) + 1))
    assert project(basis, windows, x) is x
    assert np.array_equal(x[:, :-1], expected) and (x[:, -1] == 1.0).all()
    assert np.array_equal(fmlp._network_input(basis, windows), x)


def test_project_layout_and_values():
    rng = seeded_rng(4)
    curves = rng.uniform(0, 1, size=(10, 2, 6))
    insts = make_instances(curves)
    basis = fit_row_basis(insts)
    scores = project(basis, insts, np.empty((10, basis.total_components)))
    slices = component_slices(basis)
    for r, sensor in enumerate(basis.sensors):
        for p in range(sensor.num_components):
            manual = discrete_integral(sensor.components[p], curves[0, r])
            assert scores[0, slices[r].start + p] == pytest.approx(manual, abs=1e-12)
