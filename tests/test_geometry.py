import numpy as np
import pytest
from conftest import affine_factor, intermediate_vertices, line_forms

from quadseq.geometry import (
    _D13,
    _D24,
    _L1,
    _L2,
    _L3,
    _L4,
    _M13,
    _M24,
    DegenerateCellError,
    NonConvexCellError,
    QuadGeometry,
    _line_through,
    shoelace_area,
)
from quadseq.mesh import make_mesh
from quadseq.verify import random_convex_quads


def _affine(c, p):
    """Value c0 + cx*x + cy*y of an affine form (c0, cx, cy) at points (..., 2)."""
    return c[0] + c[1] * p[..., 0] + c[2] * p[..., 1]


def test_unit_square_decomposition(unit_square):
    g = unit_square
    np.testing.assert_allclose(g.A, [[0.5, 0.0], [0.0, 0.5]])
    np.testing.assert_allclose(g.b, [0.5, 0.5])
    np.testing.assert_allclose(g.d, [0.0, 0.0])
    np.testing.assert_allclose(g.s, [0.0, 0.0])
    assert g.area == 1.0
    assert g.h == pytest.approx(np.sqrt(2.0))


def test_spec_trapezoid_decomposition(spec_trapezoid):
    g = spec_trapezoid
    np.testing.assert_allclose(g.A, [[0.625, 0.125], [0.0, 0.5]])
    np.testing.assert_allclose(g.d, [0.125, 0.0])
    np.testing.assert_allclose(g.s, [0.2, 0.0], atol=1e-15)
    assert g.area == pytest.approx(1.25)


def test_line_normalization_conditions(random_quads):
    # l_i(M_{i+2}) = 1, m13(M_2) = m24(M_3) = 1, d13(V_4) = d24(V_3) = 1,
    # and l_i vanishes at both endpoints of edge i.
    for g in random_quads:
        lv = g.local_vertices
        lm = g.to_local(g.edge_mid)
        *edge_lines, m13, m24, d13, d24 = line_forms(g)
        for i, line in enumerate(edge_lines):
            assert _affine(line, lm[(i + 2) % 4]) == pytest.approx(1.0, abs=1e-12)
            assert abs(_affine(line, lv[i])) < 1e-14
            assert abs(_affine(line, lv[(i + 1) % 4])) < 1e-14
        assert _affine(m13, lm[1]) == pytest.approx(1.0, abs=1e-12)
        assert _affine(m24, lm[2]) == pytest.approx(1.0, abs=1e-12)
        assert _affine(d13, lv[3]) == pytest.approx(1.0, abs=1e-12)
        assert _affine(d24, lv[2]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("geom", [
    make_mesh(8, "random", seed=3).cell_geometry,
    random_convex_quads(300, 4),
    QuadGeometry([[0.0, 0.0], [1.0, 0.1], [0.8, 0.9], [0.1, 0.7]]),
], ids=["mesh", "samples", "one-cell"])
def test_forms_equal_one_line_at_a_time(geom):
    # ``forms`` comes from one stacked ``_line_through`` call; each line
    # formed on its own points gives the same bits.
    lv, lm = geom.local_vertices, geom.to_local(geom.edge_mid)
    lines = {
        _L1: (lv, 0, lv, 1, lm, 2), _L2: (lv, 1, lv, 2, lm, 3),
        _L3: (lv, 2, lv, 3, lm, 0), _L4: (lv, 3, lv, 0, lm, 1),
        _M13: (lm, 0, lm, 2, lm, 1), _M24: (lm, 1, lm, 3, lm, 2),
        _D13: (lv, 0, lv, 2, lv, 3), _D24: (lv, 1, lv, 3, lv, 2),
    }
    assert geom.forms.shape == geom.h.shape + (8, 3)
    assert sorted(lines) == list(range(8))
    for k, (p, i, q, j, r, m) in lines.items():
        want = _line_through(p[..., i, None, :], q[..., j, None, :], r[..., m, None, :])
        assert np.array_equal(geom.forms[..., k, :], want[..., 0, :])


def test_intermediate_frame_line_pullbacks(random_quads):
    # Pulled back through the affine factor, the line forms take fixed
    # rational expressions in the shape parameters on the intermediate quad.
    rng = np.random.default_rng(7)
    for g in random_quads[:10]:
        s1, s2 = g.s
        pts = rng.uniform(-1, 1, (25, 2))
        xt, yt = pts[:, 0], pts[:, 1]
        phys = affine_factor(g, pts)
        loc = g.to_local(phys)

        expected = {
            0: 0.5 * (-s2 / (s1 - 1) * xt + yt + 1),
            1: 0.5 * (-xt + s1 / (s2 + 1) * yt + 1),
            2: 0.5 * (s2 / (s1 + 1) * xt - yt + 1),
            3: 0.5 * (xt - s1 / (s2 - 1) * yt + 1),
        }
        *edge_lines, m13, m24, d13, d24 = line_forms(g)
        for i, line in enumerate(edge_lines):
            np.testing.assert_allclose(_affine(line, loc), expected[i], rtol=0, atol=1e-12)
        np.testing.assert_allclose(_affine(m13, loc), xt, atol=1e-12)
        np.testing.assert_allclose(_affine(m24, loc), yt, atol=1e-12)
        want_d13 = (-xt + yt + s1 - s2) / (2 * (s1 - s2 + 1))
        want_d24 = (xt + yt + s1 + s2) / (2 * (s1 + s2 + 1))
        np.testing.assert_allclose(_affine(d13, loc), want_d13, atol=1e-12)
        np.testing.assert_allclose(_affine(d24, loc), want_d24, atol=1e-12)


def test_intermediate_vertices_map_back(random_quads):
    for g in random_quads:
        mapped = affine_factor(g, intermediate_vertices(g))
        np.testing.assert_allclose(mapped, g.vertices, atol=1e-12 * max(1.0, g.h))


def edge_param_coeffs(g):
    """Signed edge parameters (..., 4, 3): -1 at V_i, +1 at V_{i+1}, affine
    in the cell-local plane."""
    t, lm = g.tangents, g.to_local(g.edge_mid)
    c = 2.0 * g.h[..., None] / g.edge_len
    return np.stack([-c * (lm * t).sum(-1), c * t[..., 0], c * t[..., 1]], axis=-1)


def test_edge_parameter_endpoints(random_quads):
    for g in random_quads:
        lv = g.local_vertices
        for i, xi in enumerate(edge_param_coeffs(g)):
            assert _affine(xi, lv[i]) == pytest.approx(-1.0, abs=1e-12)
            assert _affine(xi, lv[(i + 1) % 4]) == pytest.approx(1.0, abs=1e-12)


def test_nonconvex_rejected():
    with pytest.raises(NonConvexCellError):
        QuadGeometry([[0, 0], [1, 0], [0.1, 0.1], [0, 1]])  # chevron


def test_clockwise_rejected():
    with pytest.raises(ValueError):
        QuadGeometry([[0, 0], [0, 1], [1, 1], [1, 0]])


def test_degenerate_edge_rejected():
    with pytest.raises(DegenerateCellError):
        QuadGeometry([[0, 0], [0, 0], [1, 1], [0, 1]])


@pytest.mark.parametrize("k", [-12, -7, 0, 7, 12])
def test_degenerate_cells_rejected_at_every_scale(k):
    # Both tests are relative to the cell's size. A parallelogram 1e-15 as
    # thin as it is long has |det A| = 5e-16 ||A||_F^2 and an edge 1e-15 of
    # the diameter is too short, whatever the unit of length. (Scaled by
    # 1e7 or more, the sliver used to pass as a valid cell, and the short
    # edge raised NonConvexCellError.)
    scale = 10.0**k
    sliver = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-15], [1.0, 1e-15]])
    with pytest.raises(DegenerateCellError, match="singular affine factor"):
        QuadGeometry(sliver * scale)
    short = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(DegenerateCellError, match="zero-length edge"):
        QuadGeometry(short * scale)
    with pytest.raises(DegenerateCellError, match="zero-length edge"):
        QuadGeometry(np.zeros((4, 2)))


def test_reference_map_and_jacobian(spec_trapezoid):
    g = spec_trapezoid
    corners = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    np.testing.assert_allclose(g.map_reference(corners), g.vertices, atol=1e-14)
    # integral of |det DF| over the reference square equals the area
    from quadseq.quadrature import QuadratureRule
    rule = QuadratureRule(4)
    total = rule.ref_weights @ np.abs(g.jacobian_det(rule.ref_points))
    assert total == pytest.approx(g.area, rel=1e-13)


def test_shoelace(spec_trapezoid):
    assert shoelace_area([[0, 0], [1, 0], [1, 1], [0, 1]]) == 1.0
    assert QuadGeometry(spec_trapezoid.vertices).area == pytest.approx(1.25)
