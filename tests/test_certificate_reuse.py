"""The certificates evaluate each cell's monomial frames and stream span once.

``element_certificate`` and ``verify_exact_sequence`` build both elements on
one geometry from one stream span and one pair of frames, and every check
reads the frames the elements keep. The oracle here is the per-helper path:
each helper evaluates the frames of its geometry itself, the elements are
built one at a time, and reproduction reads the values of ``tabulate``. The
new path must give the same residuals and reports bit for bit.
"""

from collections import Counter

import numpy as np
import pytest

import quadseq.assembly as assembly
import quadseq.elements as elements
import quadseq.sequence as sequence
import quadseq.verify as verify
from quadseq.elements import (
    _EDGE_T,
    _EDGE_W,
    _NEXT,
    _edge_means,
    _frames,
    _scalar_dof_rows,
    _span_chain,
    _swap,
    _vector_dof_rows,
    build_scalar_element,
    build_vector_element,
    det_oracles,
    numeric_dets,
    scalar_dof_values,
    vector_dof_values,
)
from quadseq.geometry import QuadGeometry
from quadseq.mesh import make_mesh
from quadseq.poly import DX, DY
from quadseq.sequence import verify_exact_sequence
from quadseq.verify import THRESHOLDS, element_certificate, random_convex_quads

FAMILIES = ["sweep", "rectangular", "trapezoidal", "random"]


# ---------------------------------------------------------------------------
# evaluations per geometry
# ---------------------------------------------------------------------------

@pytest.fixture
def evaluations(monkeypatch):
    """Count ``_frames`` and ``_stream_span`` calls per geometry object;
    ``geometries`` maps each id to its geometry and keeps it alive, so
    the ids stay unique."""
    counts = {"frames": Counter(), "span": Counter(), "geometries": {}}

    def counted(kind, fn):
        def wrapper(geom, *args, **kwargs):
            counts["geometries"][id(geom)] = geom
            counts[kind][id(geom)] += 1
            return fn(geom, *args, **kwargs)
        return wrapper

    for kind, name in (("frames", "_frames"), ("span", "_stream_span")):
        fn = getattr(elements, name)
        for module in (elements, verify, sequence):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(kind, fn))
    return counts


def _distinct(geom):
    """The vertices of the distinct cells of ``geom`` (bit for bit), in
    order of first occurrence."""
    keys = np.ascontiguousarray(geom.vertices).view(np.uint64).reshape(len(geom), -1)
    return geom.vertices[np.sort(np.unique(keys, axis=0, return_index=True)[1])]


@pytest.mark.parametrize("family", FAMILIES)
def test_element_certificate_evaluates_frames_and_span_once(evaluations, family):
    element_certificate(200, seed=1, family=family, identity_samples=150)
    frames, span = evaluations["frames"], evaluations["span"]
    geometries = evaluations["geometries"]
    # Each evaluated geometry, the distinct cells of an element task of the
    # determinant quads or of the identity cells, evaluates its frames once,
    # and an identity task its span once.
    assert set(frames.values()) == {1} and set(span.values()) == {1}
    assert set(span) <= set(frames)
    # The tasks hold the distinct quads and the distinct identity cells, each
    # once, in order of first occurrence, and none holds more than
    # TASK_CELLS cells: the 200 and 150 cells of the sweep are all distinct,
    # and those of a mesh family cycle through its 16 cells.
    quads, cells = _certificate_cells(family, 200, 1, 150)
    sizes = [len(geometries[k]) for k in frames]
    assert sum(sizes) == (200 + 150 if family == "sweep" else 16 + 16)
    assert max(sizes) <= assembly.TASK_CELLS

    def stacked(keys):
        return np.concatenate([geometries[k].vertices for k in keys])

    assert np.array_equal(stacked(k for k in frames if k not in span), _distinct(quads))
    assert np.array_equal(stacked(span), _distinct(cells))


def test_each_distinct_cell_of_a_chunk_is_evaluated_once(evaluations):
    # 2000 samples cycle through the 16 cells of a rectangular mesh, in two
    # chunks of at most CELL_CHUNK cells; each chunk checks the 16 once, for
    # the determinants and for the identities.
    assert 1000 < assembly.CELL_CHUNK < 2000
    element_certificate(2000, seed=1, family="rectangular", identity_samples=2000)
    geometries = evaluations["geometries"]
    assert [len(geometries[k]) for k in evaluations["frames"]] == [16] * 4
    assert [len(geometries[k]) for k in evaluations["span"]] == [16] * 2


@pytest.mark.parametrize("family", FAMILIES[1:])
def test_sequence_certificate_builds_each_distinct_shape_once(monkeypatch, family):
    # One element pair per distinct unit shape: 1 on a rectangular mesh, a
    # few on a trapezoidal one, all 64 cells of a random one.
    built, build = [], sequence._build_pair

    def counted(geom):
        built.append(geom.vertices)
        return build(geom)

    monkeypatch.setattr(sequence, "_build_pair", counted)
    mesh = make_mesh(8, family, seed=3)
    verify_exact_sequence(mesh)
    unit = QuadGeometry(mesh.cell_geometry.local_vertices)
    assert np.array_equal(np.concatenate(built), _distinct(unit))
    assert (len(np.concatenate(built)) == 1) == (family == "rectangular")


@pytest.mark.parametrize("family", ["rectangular", "trapezoidal", "random"])
def test_certificate_pair_builds_no_unit_geometry(family, monkeypatch):
    # The mesh forms the unit geometry of its cells once, and both
    # certificates read it: they used to build it once each.
    mesh = make_mesh(4, family, seed=3)
    built, init = [], QuadGeometry.__init__

    def counted(self, vertices):
        built.append(np.shape(vertices))
        init(self, vertices)

    monkeypatch.setattr(QuadGeometry, "__init__", counted)
    verify_exact_sequence(mesh)
    sequence.inf_sup_constant(mesh)
    assert built == []
    make_mesh(4, family, seed=3)  # the cells' geometry and their unit geometry
    assert built == [(16, 4, 2), (16, 4, 2)]


def test_sequence_certificate_evaluates_frames_and_span_once(evaluations):
    verify_exact_sequence(make_mesh(4, "random", seed=3))
    frames, span = evaluations["frames"], evaluations["span"]
    assert list(frames.values()) == [1]
    assert list(span.values()) == [1]
    assert set(span) == set(frames)


# ---------------------------------------------------------------------------
# the per-helper oracle
# ---------------------------------------------------------------------------

def _edge_mean_identity_oracle(geom, coeff):
    h = geom.h[..., None, None]
    Vv, Ve = _frames(geom)
    vals_v = coeff @ Vv
    gx, gy = (coeff @ DX.T) @ Vv, (coeff @ DY.T) @ Vv
    mean = (coeff @ Ve).reshape(vals_v.shape[:-1] + (4, len(_EDGE_W))) @ _EDGE_W
    t = geom.tangents[..., None, :, :]
    dt_start = (gx * t[..., 0] + gy * t[..., 1]) / h
    dt_end = (gx[..., _NEXT] * t[..., 0] + gy[..., _NEXT] * t[..., 1]) / h
    resid = (
        mean - 0.5 * (vals_v + vals_v[..., _NEXT])
        + geom.edge_len[..., None, :] / 12.0 * (dt_end - dt_start)
    )
    return np.abs(resid).max((-2, -1))


def _weighted_normal_identity_oracle(geom, elt):
    Vv, Ve = _frames(geom)
    vx, vy = elt.coeff_x @ Vv, elt.coeff_y @ Vv
    xi = np.tile(2.0 * _EDGE_T - 1.0, 4)
    lhs = _edge_means((elt.coeff_x @ Ve) * xi, (elt.coeff_y @ Ve) * xi, geom.normals)
    n = geom.normals[..., None, :, :]
    rhs = ((vx[..., _NEXT] - vx) * n[..., 0] + (vy[..., _NEXT] - vy) * n[..., 1]) / 6.0
    return np.abs(lhs - _swap(rhs)).max((-2, -1))


def _curl_dofs_oracle(geom, scalar_elt, vector_elt):
    curl_x = scalar_elt.coeff_matrix @ DY.T
    curl_y = -(scalar_elt.coeff_matrix @ DX.T)
    return _swap(_vector_dof_rows(curl_x, curl_y, geom, *_frames(geom))[..., :12, :])


def _curl_inclusion_oracle(geom, scalar_elt, vector_elt):
    curl_x = scalar_elt.coeff_matrix @ DY.T
    curl_y = -(scalar_elt.coeff_matrix @ DX.T)
    S = _curl_dofs_oracle(geom, scalar_elt, vector_elt)
    rx = S @ vector_elt.coeff_x - curl_x
    ry = S @ vector_elt.coeff_y - curl_y
    flux = np.abs(S[..., :4].sum(-1)).max(-1)
    scale = np.maximum(1.0, np.maximum(np.abs(curl_x).max((-2, -1)),
                                       np.abs(curl_y).max((-2, -1))))
    resid = np.maximum(np.abs(rx).max((-2, -1)), np.abs(ry).max((-2, -1)))
    return resid, scale, flux


def _reproduction_oracle(geom):
    b, h = geom.b[..., None, :], geom.h[..., None]

    def u(x, y):
        X, Y = (x - b[..., 0]) / h, (y - b[..., 1]) / h
        return 0.4 - 1.1 * X + 0.7 * Y + 0.9 * X * X - 1.3 * X * Y + 0.5 * Y * Y

    def gu(x, y):
        X, Y = (x - b[..., 0]) / h, (y - b[..., 1]) / h
        return np.stack([(-1.1 + 1.8 * X - 1.3 * Y) / h, (0.7 - 1.3 * X + 1.0 * Y) / h], -1)

    se = build_scalar_element(geom)
    dofs = scalar_dof_values(geom, u, gu)
    pts = geom.map_reference(np.random.default_rng(11).uniform(-1, 1, (40, 2)))
    vals = (se.tabulate(pts)[0] @ dofs[..., None])[..., 0]
    err_s = np.abs(vals - u(pts[..., 0], pts[..., 1])).max(-1)

    def v(x, y):
        X, Y = (x - b[..., 0]) / h, (y - b[..., 1]) / h
        return np.stack([0.3 + 0.8 * Y - 0.2 * X, -0.6 + 0.5 * X + 0.9 * Y], -1)

    ve = build_vector_element(geom)
    vdofs = vector_dof_values(geom, v)
    err_v = np.abs(
        np.einsum("...qjc,...j->...qc", ve.tabulate(pts)[0], vdofs) - v(pts[..., 0], pts[..., 1])
    ).max((-2, -1))
    return err_s, err_v, se, ve


def _bubble_oracle(geom):
    C = _span_chain(geom)[2]
    Cx, Cy = C @ DX.T, C @ DY.T
    h = geom.h[..., None, None]
    Vv, Ve = _frames(geom)
    vals = np.maximum(np.abs(C @ Vv).max((-2, -1)),
                      np.maximum(np.abs(Cx @ Vv).max((-2, -1)) / geom.h,
                                 np.abs(Cy @ Vv).max((-2, -1)) / geom.h))
    gxe, gye = Cx @ Ve, Cy @ Ve
    length = geom.edge_len[..., :, None]
    curl_t = _edge_means(gye, -gxe, geom.tangents) / h * length
    dn_mean = _edge_means(gxe, gye, geom.normals) / h
    return vals, np.abs(curl_t + length * dn_mean).max((-2, -1))


def _oracle_residuals(quads, cells):
    num = np.stack(numeric_dets(quads), axis=-1)
    orc = np.stack(det_oracles(quads.s[:, 0], quads.s[:, 1]), axis=-1)
    err_s, err_v, se, ve = _reproduction_oracle(cells)
    incl, scale, flux = _curl_inclusion_oracle(cells, se, ve)
    bv, btr = _bubble_oracle(cells)
    s_rows = _scalar_dof_rows(se.coeff_matrix, cells, *_frames(cells))
    v_rows = _vector_dof_rows(ve.coeff_x, ve.coeff_y, cells, *_frames(cells))
    Ve = _frames(cells)[1]
    bubbles = se.span[..., 12:, :]
    bubble_means = _edge_means((bubbles @ DX.T) @ Ve, (bubbles @ DY.T) @ Ve,
                               cells.normals) / cells.h[..., None, None]
    aggregation = bubble_means @ se.solution[..., 12:, :]
    formula = -_scalar_dof_rows(se.aux_matrix(), cells, *_frames(cells))[..., 12:, :]
    per_cell = {
        "det_rel_err": np.abs((num - orc) / orc),
        "p2_reproduction": err_s,
        "p1_vector_reproduction": err_v,
        "scalar_duality": np.abs(s_rows[..., :12, :] - np.eye(12)).max((-2, -1)),
        "scalar_constraint": np.abs(s_rows[..., 12:, :]).max((-2, -1)) * cells.h,
        "vector_duality": np.abs(v_rows[..., :12, :] - np.eye(12)).max((-2, -1)),
        "vector_constraint": np.abs(v_rows[..., 12:, :]).max((-2, -1)),
        "div_in_p0": ve.divergence()[1],
        "edge_mean_identity": _edge_mean_identity_oracle(cells, se.coeff_matrix),
        "aggregation_crosscheck": np.abs(aggregation - formula),
        "weighted_normal_identity": _weighted_normal_identity_oracle(cells, ve),
        "curl_inclusion": incl / scale,
        "curl_flux_sum": flux,
        "div_is_flux": np.abs(ve.divergence()[0] * cells.area[:, None]
                              - np.repeat([1.0, 0.0], [4, 8])).max(-1),
        "bubble_vertex_values": bv,
        "bubble_trace_relation": btr,
    }
    return {k: float(per_cell[k].max()) for k in THRESHOLDS}


def _certificate_cells(family, samples, seed, identity_samples):
    if family == "sweep":
        return (random_convex_quads(samples, seed),
                random_convex_quads(identity_samples, seed + 1, max_skew=0.8, max_aspect=2.0))
    geom = make_mesh(4, family, seed=seed).cell_geometry
    return tuple(geom[np.arange(k) % len(geom)] for k in (samples, identity_samples))


@pytest.mark.parametrize("family", FAMILIES)
def test_certificate_residuals_equal_the_per_helper_oracle(family):
    cert = element_certificate(200, seed=2, family=family)
    want = _oracle_residuals(*_certificate_cells(family, 200, 2, 200))
    assert len(cert.residuals) == 16
    assert cert.residuals == want  # bit for bit


@pytest.mark.parametrize("family", FAMILIES[1:])
def test_sequence_report_equals_the_per_helper_oracle(monkeypatch, family):
    meshes = [make_mesh(n, family, seed=5) for n in (2, 4, 8, 16)]
    got = [verify_exact_sequence(mesh).to_json() for mesh in meshes]
    monkeypatch.setattr(sequence, "_build_pair",
                        lambda g: (build_scalar_element(g), build_vector_element(g)))
    monkeypatch.setattr(sequence, "_curl_dofs", _curl_dofs_oracle)
    assert got == [verify_exact_sequence(mesh).to_json() for mesh in meshes]
