import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from model_oracles import discrete_integral, reference_eigh

from fmlp_rul.numerics import eigh, seeded_rng


def random_symmetric(order, seed):
    rng = seeded_rng(seed)
    a = rng.normal(size=(order, order))
    return (a + a.T) / 2.0


def test_eigh_identity():
    values, vectors = eigh(np.eye(2))
    assert np.allclose(values, [1.0, 1.0])
    assert np.allclose(vectors @ vectors.T, np.eye(2), atol=1e-10)


def test_eigh_hand_solved_2x2():
    # char. polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 = 0 -> l = 3, 1
    values, vectors = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(values, [3.0, 1.0], atol=1e-12)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(vectors[:, 0], [r, r], atol=1e-10)
    assert np.allclose(vectors[:, 1], [r, -r], atol=1e-10)
    assert vectors[:, 1].sum() == 0.0  # the sign rule's first-nonzero branch decides


def test_eigh_reconstruction_oracle():
    a = random_symmetric(10, seed=123)
    values, vectors = eigh(a)
    recon = vectors @ np.diag(values) @ vectors.T
    assert np.max(np.abs(a - recon)) < 1e-8
    assert np.max(np.abs(vectors.T @ vectors - np.eye(10))) < 1e-10
    assert np.all(np.diff(values) <= 0)


def test_eigh_eigenpair_residual():
    a = random_symmetric(17, seed=9)
    values, vectors = eigh(a)
    tol = 1e-8 * np.max(np.abs(a))
    for p in range(17):
        assert np.max(np.abs(a @ vectors[:, p] - values[p] * vectors[:, p])) < tol


def test_eigh_trace_identity():
    a = random_symmetric(12, seed=4)
    values, _ = eigh(a)
    assert abs(values.sum() - np.trace(a)) < 1e-8 * 12 * np.max(np.abs(a))


def test_eigh_bitwise_deterministic():
    a = random_symmetric(8, seed=77)
    v1, e1 = eigh(a)
    v2, e2 = eigh(a)
    assert np.array_equal(v1, v2)
    assert np.array_equal(e1, e2)


def test_eigh_sign_convention():
    for seed in range(5):
        _, vectors = eigh(random_symmetric(9, seed=seed))
        for j in range(vectors.shape[1]):
            s = vectors[:, j].sum()
            if s == 0.0:
                nonzero = vectors[np.nonzero(vectors[:, j])[0][0], j]
                assert nonzero > 0
            else:
                assert s > 0


def test_eigh_rejects_nonfinite():
    a = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError):
        eigh(a)


def test_eigh_zero_matrix():
    values, vectors = eigh(np.zeros((3, 3)))
    assert np.array_equal(values, np.zeros(3))
    assert np.array_equal(vectors, np.eye(3))


@st.composite
def symmetric_stacks(draw):
    """Stacks (k, m, m) of exactly symmetric matrices. Small integers give
    repeated eigenvalues. A graph Laplacian's rows each sum to 0, so every
    eigenvector but the constant one has an exact coordinate sum of 0: the
    computed sum is rounding noise whose sign depends on the summation order."""
    shape = (draw(st.integers(1, 3)), *[draw(st.integers(1, 12))] * 2)
    kind = draw(st.sampled_from(["integers", "floats", "laplacian"]))
    if kind == "floats":
        raw = draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    else:
        raw = draw(arrays(np.float64, shape, elements=st.integers(-3, 3).map(float)))
    lower = np.tril(raw, -1)
    if kind == "laplacian":
        adjacency = lower != 0.0
        adjacency = (adjacency | np.swapaxes(adjacency, -1, -2)).astype(np.float64)
        return np.eye(shape[-1]) * adjacency.sum(axis=-1)[..., None] - adjacency
    return lower + np.swapaxes(lower, -1, -2) + np.eye(shape[-1]) * raw


@settings(max_examples=300, deadline=None)
@given(symmetric_stacks())
@example(np.array([[[2.0, 1.0], [1.0, 2.0]]]))  # eigenvector [1, -1]/sqrt(2) sums to 0
@example(np.array([np.diag([1.0, 2.0, 1.0]), np.eye(3)]))  # repeated eigenvalues
@example(np.stack([random_symmetric(9, seed=seed) for seed in range(4)]))
def test_eigh_stack_matches_per_matrix_reference_bit_for_bit(stack):
    # Each matrix of the stack, and the same matrix in a call of its own.
    values, vectors = eigh(stack)
    assert values.shape == stack.shape[:-1] and vectors.shape == stack.shape
    for a, stacked_values, stacked_vectors in zip(stack, values, vectors):
        want_values, want_vectors = reference_eigh(a)
        for got_values, got_vectors in [(stacked_values, stacked_vectors), eigh(a)]:
            assert got_values.tobytes() == want_values.tobytes()
            assert got_vectors.tobytes() == want_vectors.tobytes()
            # The layout picks the BLAS kernel of every later product.
            assert got_vectors.strides == want_vectors.strides


def test_discrete_integral_constant():
    f = np.ones(7)
    g = np.full(7, 3.25)
    assert discrete_integral(f, g) == 3.25


def test_discrete_integral_hand_value():
    assert discrete_integral(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 5.5


def test_discrete_integral_orthogonal():
    assert discrete_integral(np.array([1.0, -1.0]), np.array([1.0, 1.0])) == 0.0


def test_discrete_integral_length_mismatch():
    with pytest.raises(ValueError):
        discrete_integral(np.ones(3), np.ones(4))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=24),
    st.floats(-50, 50),
)
def test_discrete_integral_bilinear(values, alpha):
    f = np.array(values)
    rng = seeded_rng(len(values))
    g = rng.uniform(-10, 10, size=f.size)
    h = rng.uniform(-10, 10, size=f.size)
    left = discrete_integral(alpha * f + g, h)
    right = alpha * discrete_integral(f, h) + discrete_integral(g, h)
    assert left == pytest.approx(right, rel=1e-12, abs=1e-9)


def test_seeded_rng_reproducible():
    a = seeded_rng(99).uniform(size=10)
    b = seeded_rng(99).uniform(size=10)
    assert np.array_equal(a, b)
    assert isinstance(seeded_rng(0).bit_generator, np.random.PCG64)
