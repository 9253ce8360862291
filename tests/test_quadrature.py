import numpy as np
import pytest

from quadseq.mesh import make_mesh
from quadseq.quadrature import QuadratureRule, gauss01


def test_unit_measure(unit_square):
    pts, wts = QuadratureRule(4).cell_points(unit_square)
    assert wts.sum() == pytest.approx(1.0, rel=1e-14)


def test_trapezoid_measure(spec_trapezoid):
    pts, wts = QuadratureRule(4).cell_points(spec_trapezoid)
    assert wts.sum() == pytest.approx(1.25, rel=1e-13)


def test_polynomial_integral(unit_square):
    pts, wts = QuadratureRule(4).cell_points(unit_square)
    val = wts @ (pts[:, 0] ** 2 * pts[:, 1] ** 2)
    assert val == pytest.approx(1.0 / 9.0, rel=1e-13)


@pytest.mark.parametrize("family", ["rectangular", "trapezoidal", "random"])
def test_weights_sum_to_cell_area(family):
    mesh = make_mesh(4, family, seed=8)
    rule = QuadratureRule(4)
    for ci in range(mesh.n_cells):
        geom = mesh.cell_geometry[ci]
        _, wts = rule.cell_points(geom)
        assert wts.sum() == pytest.approx(geom.area, rel=1e-12)


def test_exactness_degree(spec_trapezoid):
    # g = 3 integrates bilinear pullbacks of per-axis degree <= 5 exactly;
    # compare against a much finer rule on a genuinely warped cell.
    coarse = QuadratureRule(3).cell_points(spec_trapezoid)
    fine = QuadratureRule(8).cell_points(spec_trapezoid)

    def integrate(rule_pts, f):
        pts, wts = rule_pts
        return wts @ f(pts[:, 0], pts[:, 1])

    f = lambda x, y: x**2 * y**2  # pullback per-axis degree 4 + jacobian
    assert integrate(coarse, f) == pytest.approx(integrate(fine, f), rel=1e-12)


def test_quadrature_points_api(unit_square):
    pts, wts = QuadratureRule(4).cell_points(unit_square)
    assert pts.shape == (16, 2) and wts.shape == (16,)
    assert wts.sum() == pytest.approx(1.0, rel=1e-13)


def test_order_bounds():
    with pytest.raises(ValueError):
        QuadratureRule(1)
    with pytest.raises(ValueError):
        QuadratureRule(9)


def test_gauss01_normalization():
    t, w = gauss01(5)
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.all((t > 0) & (t < 1))
    # exact for degree-9 polynomials on [0, 1]
    assert (w @ t**9) == pytest.approx(1.0 / 10.0, rel=1e-13)
