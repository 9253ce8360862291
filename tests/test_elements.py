import json
from types import SimpleNamespace

import numpy as np
import pytest

from quadseq.elements import (
    ElementConditioningError,
    ScalarElement,
    VectorElement,
    _frames,
    _span_chain,
    _stream_span,
    _unisolvency_rows,
    _vector_span,
    aggregation_coeffs_formula,
    build_scalar_element,
    build_vector_element,
    det_oracles,
    numeric_dets,
    scalar_dof_values,
    vector_dof_values,
)
from conftest import (
    reference_bubble_span,
    reference_corrector_span,
    reference_unisolvency_rows,
)
from quadseq.geometry import NonConvexCellError, QuadGeometry
from quadseq.mesh import make_mesh
from quadseq.poly import DX, DY, MONOMIALS, vandermonde
from quadseq.quadrature import gauss01
from quadseq.verify import (
    THRESHOLDS,
    ElementCertificate,
    _bubble_residuals,
    _curl_dofs,
    _curl_inclusion_residual,
    _div_flux_residual,
    _edge_mean_identity_residual,
    _reproduction_residuals,
    _weighted_normal_identity_residual,
    element_certificate,
    random_convex_quads,
)

RECTANGLES = [
    [[0, 0], [1, 0], [1, 1], [0, 1]],
    [[0.3, -0.2], [2.3, -0.2], [2.3, 0.8], [0.3, 0.8]],
]


# ---------------------------------------------------------------------------
# determinant oracles
# ---------------------------------------------------------------------------

def test_det_oracles_at_origin():
    det_m, det_n, det_b = det_oracles(0.0, 0.0)
    assert det_m == pytest.approx(4.0, abs=1e-14)
    assert det_n == pytest.approx(4.0, abs=1e-14)
    assert det_b == pytest.approx(-1.0 / 810.0, abs=1e-18)


def test_det_oracles_reject_nonconvex():
    with pytest.raises(NonConvexCellError):
        det_oracles(0.7, 0.4)


def test_det_oracles_on_a_batch():
    s = random_convex_quads(50, seed=12).s
    batch = det_oracles(s[:, 0], s[:, 1])
    for k, (s1, s2) in enumerate(s):
        assert [d[k] for d in batch] == list(det_oracles(s1, s2))
    s[[3, 7]] = [0.7, 0.4]
    with pytest.raises(NonConvexCellError, match="cell 3:"):
        det_oracles(s[:, 0], s[:, 1])


def test_numeric_dets_match_closed_forms():
    for v in random_convex_quads(200, seed=12, max_skew=0.95).vertices:
        geom = QuadGeometry(v)
        num = np.array(numeric_dets(geom))
        orc = np.array(det_oracles(*geom.s))
        np.testing.assert_allclose(num, orc, rtol=1e-9)


def test_numeric_dets_on_square(unit_square):
    num = numeric_dets(unit_square)
    np.testing.assert_allclose(num, [4.0, 4.0, -1.0 / 810.0], rtol=1e-12)


# ---------------------------------------------------------------------------
# enrichment correctors
# ---------------------------------------------------------------------------

def _affine(c, loc):
    return c[0] + c[1] * loc[:, 0] + c[2] * loc[:, 1]


def test_correctors_reduce_on_rectangle():
    # On a rectangle (s = 0) they reduce to -l1*l3*m13*m24 and -l2*l4*m13*m24,
    # compared pointwise against products of the affine line values.
    rng = np.random.default_rng(3)
    for verts in RECTANGLES:
        g = QuadGeometry(verts)
        loc = g.to_local(g.map_reference(rng.uniform(-1, 1, (40, 2))))
        l1, l2, l3, l4, m13, m24 = (_affine(c, loc) for c in g.forms[:6])
        mm = m13 * m24
        vals = vandermonde(loc) @ _span_chain(g)[1].T
        np.testing.assert_allclose(vals[:, 0], -(l1 * l3 * mm), rtol=0, atol=1e-13)
        np.testing.assert_allclose(vals[:, 1], -(l2 * l4 * mm), rtol=0, atol=1e-13)


def test_correctors_vanish_at_vertices():
    for v in random_convex_quads(100, seed=21, max_skew=0.8, max_aspect=2.0).vertices:
        g = QuadGeometry(v)
        vals = _span_chain(g)[1] @ vandermonde(g.local_vertices).T
        assert np.abs(vals).max() < 1e-13


def test_correctors_satisfy_edge_mean_identity(random_quads):
    for g in random_quads[:10]:
        resid = _edge_mean_identity_residual(g, _span_chain(g)[1], _frames(g))
        assert resid < 1e-12


# ---------------------------------------------------------------------------
# scalar element
# ---------------------------------------------------------------------------

def test_scalar_duality_and_constraints(random_quads):
    for g in random_quads:
        e = build_scalar_element(g)
        duality, constraint = e.dof_residuals()
        assert duality < 1e-10
        assert constraint < 1e-10
        assert e.condition < 1e12


def test_scalar_p2_reproduction_unit_square(unit_square):
    e = build_scalar_element(unit_square)
    u = lambda x, y: x**2 + y
    gu = lambda x, y: np.stack([2 * x, np.ones_like(np.asarray(x, dtype=float))], -1)
    dofs = scalar_dof_values(e.geometry, u, gu)
    pts = np.random.default_rng(0).uniform(0, 1, (40, 2))
    np.testing.assert_allclose(e.tabulate(pts)[0] @ dofs, u(pts[:, 0], pts[:, 1]),
                               rtol=0, atol=1e-12)


def test_adini_space_on_rectangles():
    # On rectangles the auxiliary (bubble-free) element spans the cubic
    # serendipity space plus x^3 y and x y^3.
    rng = np.random.default_rng(4)
    for verts in RECTANGLES:
        g = QuadGeometry(verts)
        e = build_scalar_element(g)
        b, h = g.b, g.h
        for (i, j) in [(3, 1), (1, 3), (3, 0), (2, 1), (0, 3)]:
            def u(x, y):
                return ((x - b[0]) / h) ** i * ((y - b[1]) / h) ** j

            def gu(x, y):
                X, Y = (x - b[0]) / h, (y - b[1]) / h
                return np.stack([i * X ** max(i - 1, 0) * Y**j / h,
                                 j * X**i * Y ** max(j - 1, 0) / h], -1)

            dofs = scalar_dof_values(g, u, gu)
            interp = dofs @ e.aux_matrix()  # auxiliary basis combination
            pts = g.map_reference(rng.uniform(-1, 1, (30, 2)))
            loc = g.to_local(pts)
            vals = vandermonde(loc) @ interp
            np.testing.assert_allclose(vals, u(pts[:, 0], pts[:, 1]),
                                       rtol=0, atol=1e-11)


def test_aggregation_formula_cross_check(random_quads):
    for g in random_quads:
        e = build_scalar_element(g)
        c = aggregation_coeffs_formula(g, e)
        assert np.abs(c - e.aggregation()).max() < 1e-8


def test_aggregation_nontrivial_on_rectangle(unit_square):
    # The bubble corrections do not vanish on rectangles: the final space is
    # the cubic-serendipity one only after aggregation.
    e = build_scalar_element(unit_square)
    assert np.abs(e.aggregation()).max() > 1e-3


def test_edge_mean_identity_on_basis(random_quads):
    for g in random_quads:
        e = build_scalar_element(g)
        assert _edge_mean_identity_residual(g, e.coeff_matrix, e.frames) < 1e-10


def test_edge_mean_identity_cubic_example(unit_square):
    # w = x^3 on the bottom edge: mean 1/4 equals 1/2 - 3/12.
    w = np.zeros((1, len(MONOMIALS)))
    w[0, MONOMIALS.index((3, 0))] = 1.0
    resid = _edge_mean_identity_residual(unit_square, w, _frames(unit_square))
    assert resid < 1e-13
    assert 0.25 == pytest.approx(0.5 - 3.0 / 12.0)


def test_bubbles_vanish_at_vertices(random_quads):
    for g in random_quads[:10]:
        C = _span_chain(g)[2]
        V = vandermonde(g.local_vertices).T
        assert np.abs(C @ V).max() < 1e-13
        assert np.abs((C @ DX.T) @ V).max() < 1e-13
        assert np.abs((C @ DY.T) @ V).max() < 1e-13


def test_spans_stay_within_degree_six():
    # Span and unisolvency polynomials are products of at most six affine
    # forms, or derivatives of such products. The degree-6 monomial table
    # holds them (``mul_affine`` raises on a product past it), and it is
    # tight: the bubble b0 * d13 * d24 has degree 6 on every cell.
    top = np.array([i + j == 6 for i, j in MONOMIALS])
    meshes = [make_mesh(4, "rectangular"), make_mesh(4, "trapezoidal"),
              make_mesh(8, "random", seed=3)]
    for g in [m.cell_geometry for m in meshes] + [random_convex_quads(200, seed=5)]:
        for rows in (_stream_span(g), *_vector_span(g, _stream_span(g)), *_unisolvency_rows(g)):
            assert rows.shape[-1] == len(MONOMIALS)
        assert _span_chain(g)[2][..., 3, top].any(-1).all()


def _span_geometries():
    meshes = [make_mesh(8, "rectangular"), make_mesh(8, "trapezoidal"),
              make_mesh(8, "random", seed=3), make_mesh(16, "random", seed=1)]
    batches = [m.cell_geometry for m in meshes]
    batches += [QuadGeometry(g.local_vertices) for g in batches]
    batches += [random_convex_quads(300, 2), random_convex_quads(200, 3, 0.8, 2.0)]
    return batches + [g[k] for g in batches[-3:] for k in (0, 7, 41)]


@pytest.mark.parametrize("geom", _span_geometries())
def test_stacked_span_chains_keep_the_bits_of_one_product_at_a_time(geom):
    # The chains of ``_span_chain`` and ``_unisolvency_rows`` multiply stacked
    # operands level by level; every entry must equal, bit for bit, the
    # chain of one-row products it replaces (reference copies in conftest).
    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    stream = _stream_span(geom)
    assert same(stream[..., 10:12, :], reference_corrector_span(geom))
    assert same(stream[..., 12:, :], reference_bubble_span(geom))
    for rows, ref in zip(_unisolvency_rows(geom), reference_unisolvency_rows(geom)):
        assert same(rows, ref)


def test_conditioning_error_on_near_degenerate():
    s = 0.999999
    verts = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    verts += np.array([1.0, -1.0, 1.0, -1.0])[:, None] * np.array([s, 0.0])[None, :]
    geom = QuadGeometry(verts)
    with pytest.raises(ElementConditioningError):
        build_scalar_element(geom)
    # Among good cells, the batched build names the offending cell.
    good = [g.vertices for g in random_convex_quads(4, seed=2, max_skew=0.5, max_aspect=2.0)]
    batch = QuadGeometry(np.stack(good[:2] + [verts] + good[2:]))
    with pytest.raises(ElementConditioningError, match="cell 2:"):
        build_scalar_element(batch)


# ---------------------------------------------------------------------------
# both elements
# ---------------------------------------------------------------------------

def _state(element):
    return {name: id(value) for name, value in vars(element).items()}


def test_elements_hold_no_lazily_filled_state():
    # Elements are plain values: the constructor sets every attribute, and
    # no diagnostic adds or replaces one. An element re-formed from its span
    # weights has no frames.
    geom = random_convex_quads(20, seed=9, max_skew=0.8, max_aspect=2.0)
    se, ve = build_scalar_element(geom), build_vector_element(geom)
    again = [kind.from_solution(geom, e.solution)
             for kind, e in ((ScalarElement, se), (VectorElement, ve))]
    elements = [se, ve, *again]
    before = [_state(e) for e in elements]
    se.dof_residuals(), se.aggregation(), se.aux_matrix()
    aggregation_coeffs_formula(geom, se)
    ve.dof_residuals(), ve.divergence()
    again[1].divergence()  # the one diagnostic that reads no build result
    assert [_state(e) for e in elements] == before
    assert all(e.frames is None for e in again)


# ---------------------------------------------------------------------------
# vector element
# ---------------------------------------------------------------------------

def test_vector_duality_and_constraints(random_quads):
    for g in random_quads:
        e = build_vector_element(g)
        duality, constraint = e.dof_residuals()
        assert duality < 1e-10
        assert constraint < 1e-10
        assert e.divergence()[1] < 1e-10


def test_vector_p1_reproduction_unit_square(unit_square):
    e = build_vector_element(unit_square)
    v = lambda x, y: np.stack([np.asarray(y, dtype=float), np.asarray(x, dtype=float)], -1)
    dofs = vector_dof_values(e.geometry, v)
    pts = np.random.default_rng(1).uniform(0, 1, (30, 2))
    vals = np.einsum("qjc,j->qc", e.tabulate(pts)[0], dofs)
    np.testing.assert_allclose(vals, v(pts[:, 0], pts[:, 1]), rtol=0, atol=1e-12)


def test_weighted_normal_identity_linear_example(unit_square):
    # v = (y, x) on the bottom edge with outward normal (0, -1):
    # (1/|E|) int (v.n) xi ds = -1/6 = ((v(V2) - v(V1)).n) / 6.
    t = np.linspace(0, 1, 201)
    vn = -t  # v.n = -x along the bottom edge
    xi = 2 * t - 1
    integral = np.trapezoid(vn * xi, t)
    assert integral == pytest.approx(-1.0 / 6.0, abs=1e-4)
    e = build_vector_element(unit_square)
    assert _weighted_normal_identity_residual(unit_square, e, e.frames) < 1e-10


def test_weighted_normal_identity_on_basis(random_quads):
    for g in random_quads:
        e = build_vector_element(g)
        assert _weighted_normal_identity_residual(g, e, e.frames) < 1e-10


def test_curl_inclusion_on_mesh_cells():
    for family, seed in [("rectangular", 0), ("trapezoidal", 0), ("random", 5)]:
        g = make_mesh(4, family, seed=seed).cell_geometry
        se, ve = build_scalar_element(g), build_vector_element(g)
        resid, scale, flux = _curl_inclusion_residual(_curl_dofs(g, se, ve), se, ve)
        assert (resid / scale).max() < 1e-10
        assert flux.max() < 1e-10


def test_divergence_of_interpolated_curl_vanishes(unit_square):
    # The rotated gradient of a clamped stream function has zero boundary
    # flux, so the constant divergence of its interpolant vanishes.
    from quadseq.cases import brinkman_sin_stream
    case = brinkman_sin_stream()
    e = build_vector_element(unit_square)
    dofs = vector_dof_values(e.geometry, case.velocity)
    div_const = dofs @ e.divergence()[0]
    assert abs(div_const * unit_square.area) < 1e-12


def test_bubble_trace_relation(random_quads):
    for g in random_quads[:10]:
        vals, trace = _bubble_residuals(build_scalar_element(g))
        assert trace < 1e-10


# Per-edge loop versions of the three edge identities, each on its own
# 5-point edge rule, as the certificate computed them before it evaluated
# them on the element's stacked edge frame: oracles for the batched helpers.
_ET, _EW = gauss01(5)


def _vt(points):
    return np.swapaxes(vandermonde(points), -1, -2)


def _edge_mean_identity_loop(geom, coeff):
    h = geom.h[..., None, None]
    Vv = _vt(geom.local_vertices)
    vals_v = coeff @ Vv
    gx, gy = (coeff @ DX.T) @ Vv, (coeff @ DY.T) @ Vv
    worst = 0.0
    for i in range(4):
        t = geom.tangents[..., i, None, None, :]
        loc = geom.to_local(geom.edge_points(i, _ET))
        mean = (coeff @ _vt(loc)) @ _EW
        dt = (gx * t[..., 0] + gy * t[..., 1]) / h
        j = (i + 1) % 4
        resid = (
            mean - 0.5 * (vals_v[..., i] + vals_v[..., j])
            + geom.edge_len[..., i, None] / 12.0 * (dt[..., j] - dt[..., i])
        )
        worst = np.maximum(worst, np.abs(resid).max(-1))
    return worst


def _edge_param(geom, i):
    """Signed parameter of edge i, -1 at V_i and +1 at V_{i+1}, as affine
    coefficients (..., 1, 3) in the cell-local plane."""
    t, lm = geom.tangents[..., i, :], geom.to_local(geom.edge_mid)[..., i, :]
    c = 2.0 * geom.h / geom.edge_len[..., i]
    return np.stack([-c * (lm * t).sum(-1), c * t[..., 0], c * t[..., 1]], axis=-1)[..., None, :]


def _weighted_normal_identity_loop(geom, elt):
    worst = 0.0
    Vv = _vt(geom.local_vertices)
    vx_v = elt.coeff_x @ Vv
    vy_v = elt.coeff_y @ Vv
    for i in range(4):
        n = geom.normals[..., i, None, :]
        loc = geom.to_local(geom.edge_points(i, _ET))
        V = _vt(loc)
        vn = (elt.coeff_x @ V) * n[..., None, 0] + (elt.coeff_y @ V) * n[..., None, 1]
        xi = _edge_param(geom, i)
        xi_vals = xi[..., 0] + xi[..., 1] * loc[..., 0] + xi[..., 2] * loc[..., 1]
        lhs = (vn @ (_EW * xi_vals)[..., None])[..., 0]
        j = (i + 1) % 4
        rhs = ((vx_v[..., j] - vx_v[..., i]) * n[..., 0]
               + (vy_v[..., j] - vy_v[..., i]) * n[..., 1]) / 6.0
        worst = np.maximum(worst, np.abs(lhs - rhs).max(-1))
    return worst


def _bubble_trace_loop(geom):
    C = _span_chain(geom)[2]
    Cx, Cy = C @ DX.T, C @ DY.T
    h = geom.h[..., None, None]
    worst = 0.0
    for i in range(4):
        n, t = geom.normals[..., i, None, None, :], geom.tangents[..., i, None, None, :]
        length = geom.edge_len[..., i, None]
        Ve = _vt(geom.to_local(geom.edge_points(i, _ET)))
        gxe, gye = Cx @ Ve, Cy @ Ve
        curl_t = ((gye * t[..., 0] - gxe * t[..., 1]) / h) @ _EW * length
        dn_mean = ((gxe * n[..., 0] + gye * n[..., 1]) / h) @ _EW
        worst = np.maximum(worst, np.abs(curl_t + length * dn_mean).max(-1))
    return worst


@pytest.fixture(scope="module")
def oracle_cells():
    return random_convex_quads(200, 21, max_skew=0.8, max_aspect=2.0)


def _random_rows(seed, cells):
    # Random packed rows on all 28 monomials of degree <= 6: they satisfy
    # neither identity, so the residuals are far above rounding.
    return np.random.default_rng(seed).standard_normal((len(cells), 12, len(MONOMIALS)))


def test_edge_mean_identity_equals_the_edge_loop(oracle_cells):
    rows = _random_rows(0, oracle_cells)
    got = _edge_mean_identity_residual(oracle_cells, rows, _frames(oracle_cells))
    want = _edge_mean_identity_loop(oracle_cells, rows)
    assert want.min() > 1e-3  # far above rounding
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_weighted_normal_identity_equals_the_edge_loop(oracle_cells):
    fields = SimpleNamespace(coeff_x=_random_rows(1, oracle_cells),
                             coeff_y=_random_rows(2, oracle_cells))
    got = _weighted_normal_identity_residual(oracle_cells, fields, _frames(oracle_cells))
    want = _weighted_normal_identity_loop(oracle_cells, fields)
    assert want.min() > 1e-3  # far above rounding
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_bubble_trace_relation_equals_the_edge_loop(oracle_cells):
    # The relation holds for every polynomial, so both residuals are
    # rounding; they must agree to 1e-12 of the bubbles' magnitude.
    vals, trace = _bubble_residuals(build_scalar_element(oracle_cells))
    assert np.all(np.abs(trace - _bubble_trace_loop(oracle_cells)) <= 1e-12 * vals)


@pytest.mark.parametrize("kwargs", [{"samples": 0}, {"samples": -3},
                                    {"samples": 5, "identity_samples": 0}])
def test_certificate_needs_a_sample(kwargs):
    with pytest.raises(ValueError, match="at least 1"):
        element_certificate(**kwargs)


@pytest.mark.parametrize("family", ["sweep", "rectangular", "random"])
@pytest.mark.parametrize("kwargs, message", [
    ({"samples": 2.5}, "samples must be an integer, got 2.5"),
    ({"samples": True}, "samples must be an integer, got True"),
    ({"samples": 5, "identity_samples": 2.5}, "identity_samples must be an integer, got 2.5"),
    ({"samples": 5, "identity_samples": True}, "identity_samples must be an integer, got True"),
    ({"samples": 5, "identity_samples": 0}, "identity_samples must be at least 1, got 0"),
])
def test_certificate_counts_are_named(family, kwargs, message):
    # On mesh families a fractional count used to escape as an IndexError
    # from geometry indexing, and a bool landed in the JSON.
    with pytest.raises(ValueError, match=f"^{message}$"):
        element_certificate(family=family, **kwargs)


def test_certificate_counts_take_numpy_integers():
    cert = element_certificate(np.int64(6), family="random", identity_samples=np.int32(3))
    doc = json.loads(cert.to_json())
    assert (doc["samples"], doc["identity_samples"]) == (6, 3)
    assert type(cert.identity_samples) is int


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("check", sorted(THRESHOLDS))
def test_a_non_finite_residual_fails_everywhere(check, bad):
    # A NaN residual used to pass failing(), which tested residual > threshold,
    # while passed and the Markdown row, which test residual <= threshold,
    # failed it.
    residuals = dict.fromkeys(THRESHOLDS, 0.0)
    residuals[check] = float(bad)
    cert = ElementCertificate("sweep", 1, 1, 1, residuals)
    assert cert.failing() == [check]
    assert cert.passed is False
    md = cert.to_markdown()
    rows = [line.split(" | ") for line in md.splitlines() if line.startswith("| ")][1:]
    assert {row[0][2:]: row[-1] for row in rows} == {
        k: "FAIL |" if k == check else "pass |" for k in THRESHOLDS}
    assert md.endswith("overall: FAIL\n")

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    doc = json.loads(cert.to_json(), parse_constant=reject)
    assert doc["passed"] is False
    assert doc["residuals"] == {k: None if k == check else 0.0 for k in THRESHOLDS}


def _one_cell_certificate(quads, cells):
    """The certificate's residuals as maxima over one-cell calls, each on a
    cell built by the one-cell ``QuadGeometry``."""
    res = dict.fromkeys(THRESHOLDS, 0.0)

    def bump(key, value):
        res[key] = max(res[key], float(np.max(value)))

    for g in map(QuadGeometry, quads.vertices):
        num, orc = np.array(numeric_dets(g)), np.array(det_oracles(*g.s))
        bump("det_rel_err", np.abs((num - orc) / orc))
    for g in map(QuadGeometry, cells.vertices):
        err_s, err_v, se, ve = _reproduction_residuals(g)
        incl, scale, flux = _curl_inclusion_residual(_curl_dofs(g, se, ve), se, ve)
        bv, btr = _bubble_residuals(se)
        s_duality, s_constraint = se.dof_residuals()
        v_duality, v_constraint = ve.dof_residuals()
        div_constants, div_residual = ve.divergence()
        for key, value in [
            ("p2_reproduction", err_s), ("p1_vector_reproduction", err_v),
            ("scalar_duality", s_duality),
            ("scalar_constraint", s_constraint),
            ("vector_duality", v_duality),
            ("vector_constraint", v_constraint),
            ("div_in_p0", div_residual),
            ("edge_mean_identity", _edge_mean_identity_residual(g, se.coeff_matrix, se.frames)),
            ("aggregation_crosscheck",
             np.abs(se.aggregation() - aggregation_coeffs_formula(g, se))),
            ("weighted_normal_identity", _weighted_normal_identity_residual(g, ve, ve.frames)),
            ("curl_inclusion", incl / scale), ("curl_flux_sum", flux),
            ("div_is_flux", _div_flux_residual(g, div_constants)),
            ("bubble_vertex_values", bv), ("bubble_trace_relation", btr),
        ]:
            bump(key, value)
    return res


@pytest.mark.parametrize("family,samples,seed", [("sweep", 60, 3), ("random", 20, 4)])
def test_certificate_equals_one_cell_maxima(family, samples, seed):
    cert = element_certificate(samples, seed=seed, family=family, identity_samples=25)
    if family == "sweep":
        quads = random_convex_quads(samples, seed)
        cells = random_convex_quads(25, seed + 1, max_skew=0.8, max_aspect=2.0)
    else:
        geom = make_mesh(4, family, seed=seed).cell_geometry
        quads, cells = geom[np.arange(samples) % 16], geom[np.arange(25) % 16]
    assert cert.residuals == _one_cell_certificate(quads, cells)


# ---------------------------------------------------------------------------
# interpolation callables are checked by name
# ---------------------------------------------------------------------------

INTERP_CELLS = make_mesh(2, "rectangular").cell_geometry


def _scalar_u(x, y):
    return x * y


def _scalar_grad(x, y):
    return np.stack([y, x], -1)


@pytest.mark.parametrize("interpolate, name, shape, got", [
    (lambda bad: scalar_dof_values(INTERP_CELLS, bad(0), _scalar_grad), "u", "4, 4",
     r"\(4, 4, 2\)"),
    (lambda bad: scalar_dof_values(INTERP_CELLS, _scalar_u, bad(1)), "grad_u", "4, 4, 2",
     r"\(4, 4\)"),
    (lambda bad: vector_dof_values(INTERP_CELLS, bad(2)), "v", "4, 24, 2", r"\(4, 24, 3\)"),
], ids=["u", "grad_u", "v"])
def test_interpolation_callables_of_a_wrong_shape_are_named(interpolate, name, shape, got):
    # A gradient without its last axis used to fail in np.concatenate, and a
    # velocity of three components in a reshape.
    wrong = [lambda x, y: np.stack([x, y], -1), lambda x, y: x,
             lambda x, y: np.stack([x, y, x], -1)]
    with pytest.raises(ValueError, match=rf"^{name} must return real numbers of shape "
                                         rf"\({shape}\) on points of shape .*{got}"):
        interpolate(lambda k: wrong[k])


@pytest.mark.parametrize("interpolate, name", [
    (lambda bad: scalar_dof_values(INTERP_CELLS, bad, _scalar_grad), "u"),
    (lambda bad: scalar_dof_values(INTERP_CELLS, _scalar_u,
                                   lambda x, y: np.stack([bad(x, y), x], -1)), "grad_u"),
    (lambda bad: vector_dof_values(INTERP_CELLS, lambda x, y: np.stack([x, bad(x, y)], -1)), "v"),
], ids=["u", "grad_u", "v"])
def test_non_finite_interpolation_callables_name_the_cell(interpolate, name):
    # A NaN u used to give NaN errors and no exception. Cell 1 is the first
    # with a vertex at x = 1.
    with pytest.raises(ValueError, match=f"^cell 1: {name} is not finite"):
        interpolate(lambda x, y: np.where(x > 0.9, np.nan, y))


def test_interpolation_of_one_cell_is_checked(unit_square):
    with pytest.raises(ValueError, match=r"^u is not finite"):
        scalar_dof_values(unit_square, lambda x, y: np.full(x.shape, np.inf), _scalar_grad)
    dofs = scalar_dof_values(unit_square, _scalar_u, _scalar_grad)
    assert dofs.shape == (12,)
