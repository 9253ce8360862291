import numpy as np
import pytest

from quadseq.cases import (
    brinkman_sin_stream,
    scalar_poly2_case,
    scalar_sin_squared,
)

RNG = np.random.default_rng(9)
POINTS = RNG.uniform(0.05, 0.95, (12, 2))


def fd_gradient(f, x, y, d=1e-6):
    return np.stack([(f(x + d, y) - f(x - d, y)) / (2 * d),
                     (f(x, y + d) - f(x, y - d)) / (2 * d)], -1)


def fd_laplacian(f, x, y, d=1e-5):
    return (f(x + d, y) + f(x - d, y) + f(x, y + d) + f(x, y - d) - 4 * f(x, y)) / d**2


@pytest.mark.parametrize("frequency", [1, 2])
def test_scalar_case_derivatives(frequency):
    case = scalar_sin_squared(frequency)
    x, y = POINTS[:, 0], POINTS[:, 1]
    np.testing.assert_allclose(case.grad(x, y), fd_gradient(case.u, x, y),
                               rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(case.laplacian(x, y), fd_laplacian(case.u, x, y),
                               rtol=1e-4, atol=1e-3)
    np.testing.assert_allclose(case.bilaplacian(x, y),
                               fd_laplacian(case.laplacian, x, y),
                               rtol=1e-4, atol=1.0)
    H = case.hessian(x, y)
    gx = lambda x, y: case.grad(x, y)[..., 0]
    np.testing.assert_allclose(H[..., 0, :], fd_gradient(gx, x, y),
                               rtol=1e-5, atol=1e-4)


@pytest.mark.parametrize("frequency, message", [
    (1.5, "frequency must be an integer, got 1.5"),
    (2.0, "frequency must be an integer, got 2.0"),
    (True, "frequency must be an integer, got True"),
    ("2", "frequency must be an integer, got '2'"),
    (0, "frequency must be at least 1, got 0"),
    (-2, "frequency must be at least 1, got -2"),
])
def test_scalar_frequency_must_be_a_positive_integer(frequency, message):
    # A fractional k leaves u unclamped (u(1, 0.5) = 0.5 at k = 1.5), so
    # the scalar study would not converge.
    with pytest.raises(ValueError, match=f"^{message}$"):
        scalar_sin_squared(frequency)


def test_scalar_frequency_takes_numpy_integers():
    case = scalar_sin_squared(np.int64(2))
    assert case.name == "sin_squared_2"
    assert case.u(np.array([1.0, 0.25]), np.array([0.5, 0.5])) == pytest.approx([0.0, 0.0])


def test_scalar_case_clamped_boundary():
    case = scalar_sin_squared(1)
    t = np.linspace(0, 1, 17)
    for x, y in [(t, 0 * t), (t, 1 + 0 * t), (0 * t, t), (1 + 0 * t, t)]:
        assert np.abs(case.u(x, y)).max() < 1e-14
        assert np.abs(case.grad(x, y)).max() < 1e-13


def test_scalar_source_combination():
    case = scalar_sin_squared(1)
    eps = 0.25
    f = case.source(eps)
    x, y = POINTS[:, 0], POINTS[:, 1]
    expected = eps**2 * case.bilaplacian(x, y) - case.laplacian(x, y)
    np.testing.assert_allclose(f(x, y), expected, rtol=1e-14)
    np.testing.assert_allclose(case.source_biharmonic()(x, y),
                               case.bilaplacian(x, y), rtol=1e-14)


def test_flow_case_derivatives():
    case = brinkman_sin_stream()
    x, y = POINTS[:, 0], POINTS[:, 1]
    u1 = lambda x, y: case.velocity(x, y)[..., 0]
    u2 = lambda x, y: case.velocity(x, y)[..., 1]
    G = case.velocity_grad(x, y)
    np.testing.assert_allclose(G[..., 0, :], fd_gradient(u1, x, y), rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(G[..., 1, :], fd_gradient(u2, x, y), rtol=1e-6, atol=1e-6)
    L = case.velocity_laplacian(x, y)
    np.testing.assert_allclose(L[..., 0], fd_laplacian(u1, x, y), rtol=1e-4, atol=1e-2)
    np.testing.assert_allclose(L[..., 1], fd_laplacian(u2, x, y), rtol=1e-4, atol=1e-2)
    np.testing.assert_allclose(case.pressure_grad(x, y)[..., 0],
                               fd_gradient(case.pressure, x, y)[..., 0],
                               rtol=1e-6)


def test_flow_velocity_divergence_free():
    case = brinkman_sin_stream()
    x, y = POINTS[:, 0], POINTS[:, 1]
    G = case.velocity_grad(x, y)
    assert np.abs(G[..., 0, 0] + G[..., 1, 1]).max() < 1e-13
    assert case.divergence is None


def test_flow_velocity_clamped_boundary():
    case = brinkman_sin_stream()
    t = np.linspace(0, 1, 17)
    for x, y in [(t, 0 * t), (t, 1 + 0 * t), (0 * t, t), (1 + 0 * t, t)]:
        assert np.abs(case.velocity(x, y)).max() < 1e-14


def test_pressure_mean_zero_and_norm():
    case = brinkman_sin_stream()
    # dense tensor Gauss over the unit square
    from quadseq.quadrature import gauss01
    t, w = gauss01(24)
    X, Y = np.meshgrid(t, t, indexing="ij")
    W = np.outer(w, w)
    p = case.pressure(X, Y)
    assert abs((W * p).sum()) < 1e-14
    # closed form: int (sin(pi x) - 2/pi)^2 = 1/2 - 4/pi^2
    norm = np.sqrt((W * p**2).sum())
    assert norm == pytest.approx(np.sqrt(0.5 - 4.0 / np.pi**2), rel=1e-10)


def test_flow_source_combination():
    case = brinkman_sin_stream()
    x, y = POINTS[:, 0], POINTS[:, 1]
    f = case.source(0.3, 2.0)
    expected = (-0.3 * case.velocity_laplacian(x, y)
                + 2.0 * case.velocity(x, y) + case.pressure_grad(x, y))
    np.testing.assert_allclose(f(x, y), expected, rtol=1e-14)


def test_poly2_case_exact():
    case = scalar_poly2_case()
    x, y = POINTS[:, 0], POINTS[:, 1]
    np.testing.assert_allclose(case.grad(x, y), fd_gradient(case.u, x, y),
                               rtol=1e-7, atol=1e-8)
    assert np.abs(case.bilaplacian(x, y)).max() == 0.0
