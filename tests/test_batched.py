"""Properties of the cell batch: batched builds match one-cell builds, local
matrices transform correctly under similarities, and invalid cells are
rejected by index."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quadseq.cli as cli
from quadseq.assembly import CELL_CHUNK, assemble_fourth_order, unit_shape_rule
from quadseq.elements import ElementConditioningError, build_scalar_element, build_vector_element
from quadseq.geometry import DegenerateCellError, NonConvexCellError, QuadGeometry
from quadseq.mesh import Mesh, make_mesh
from quadseq.verify import random_convex_quads


def _quads(count, seed):
    return random_convex_quads(count, seed, max_skew=0.8, max_aspect=2.0)


def _assert_close(got, want, rel):
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1.0)


@settings(max_examples=20, deadline=None)
@given(count=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_batched_build_equals_one_cell_builds(count, seed):
    quads = _quads(count, seed)
    batch = QuadGeometry(np.stack([g.vertices for g in quads]))
    se, ve = build_scalar_element(batch), build_vector_element(batch)
    for k, g in enumerate(quads):
        s1, v1 = build_scalar_element(g), build_vector_element(g)
        for got, want in [(se.coeff_matrix[k], s1.coeff_matrix),
                          (se.aggregation[k], s1.aggregation),
                          (ve.coeff_x[k], v1.coeff_x), (ve.coeff_y[k], v1.coeff_y),
                          (ve.div_constants[k], v1.div_constants)]:
            _assert_close(got, want, 1e-13)
        assert se.condition[k] == pytest.approx(s1.condition, rel=1e-12)


def _local_matrices(vertices):
    """Unit-shape Gram matrices of both elements for a batch of cells."""
    unit, pts, _, w = unit_shape_rule(QuadGeometry(vertices), 4)
    _, sg, sh = build_scalar_element(unit).tabulate(pts)
    vv, vg = build_vector_element(unit).tabulate(pts)
    return [np.einsum("nq,nqicd,nqjcd->nij", w, sh, sh),
            np.einsum("nq,nqic,nqjc->nij", w, sg, sg),
            np.einsum("nq,nqicd,nqjcd->nij", w, vg, vg),
            np.einsum("nq,nqic,nqjc->nij", w, vv, vv)]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), angle=st.floats(0.0, 2 * np.pi),
       scale=st.floats(0.05, 20.0), shift=st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
def test_local_matrices_invariant_under_similarity(seed, angle, scale, shift):
    # Translation and scaling leave the unit shape, and so the h-scaled local
    # matrices, unchanged. A rotation Q rotates the gradient (scalar) and
    # vertex-component (vector) DoFs: K' = T K T^T with T = diag(I, Q x I4).
    v = _quads(1, seed)[0].vertices
    c, s = np.cos(angle), np.sin(angle)
    Q = np.array([[c, -s], [s, c]])
    moved = np.stack([v + np.array(shift), scale * v, v @ Q.T])
    T = np.eye(12)
    T[4:, 4:] = np.kron(Q, np.eye(4))
    for K in _local_matrices(moved):
        _assert_close(K[1], K[0], 1e-12)
        _assert_close(K[2], T @ K[0] @ T.T, 1e-12)


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]


def _two_cell_mesh_json(tmp_path, second):
    # Cell 0 is the unit square; cell 1 shares its right edge.
    vertices = SQUARE + [[2, 0], [2, 1]]
    doc = {"schema": "quadseq-mesh-1", "vertices": vertices, "cells": [[0, 1, 2, 3], second]}
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(doc))
    return path


def test_clockwise_cell_in_mesh_json(tmp_path):
    path = _two_cell_mesh_json(tmp_path, [1, 2, 5, 4])
    with pytest.raises(ValueError, match="cell 1: vertices must be ordered counterclockwise"):
        Mesh.load(path)


def test_nonconvex_cell_in_mesh_json(tmp_path):
    path = _two_cell_mesh_json(tmp_path, [1, 4, 5, 2])
    text = path.read_text().replace("[2, 1]", "[1.1, 0.1]")
    with pytest.raises(NonConvexCellError, match="cell 1:"):
        Mesh.from_json(text)


def test_degenerate_cell_in_mesh_json(tmp_path):
    path = _two_cell_mesh_json(tmp_path, [1, 4, 4, 2])
    with pytest.raises(DegenerateCellError, match="cell 1: zero-length edge"):
        Mesh.load(path)


def test_nonfinite_vertex_in_mesh():
    vertices = np.array(SQUARE + [[2, 0], [2, 1]], dtype=float)
    vertices[5, 1] = np.nan
    with pytest.raises(ValueError, match="cell 1: non-finite vertex coordinates"):
        Mesh(vertices, [[0, 1, 2, 3], [1, 4, 5, 2]])


def test_bad_mesh_is_a_usage_error(tmp_path, monkeypatch, capsys):
    path = _two_cell_mesh_json(tmp_path, [1, 2, 5, 4])
    monkeypatch.setattr(cli, "make_mesh", lambda *args, **kwargs: Mesh.load(path))
    assert cli.main(["verify", "sequence"]) == 2
    assert "cell 1" in capsys.readouterr().err


def test_conditioning_error_names_the_mesh_cell():
    # Separate unit squares and one nearly degenerate convex quad placed in
    # the second element batch: the error names its index in the mesh.
    bad = CELL_CHUNK + 3
    quads = [np.array(SQUARE, dtype=float) + [2.0 * k, 0.0] for k in range(CELL_CHUNK + 5)]
    s = 0.999999
    quads[bad] = (np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
                  + np.array([1.0, -1.0, 1.0, -1.0])[:, None] * [s, 0.0] + [2.0 * bad, 0.0])
    mesh = Mesh(np.concatenate(quads), np.arange(4 * len(quads)).reshape(-1, 4))
    with pytest.raises(ElementConditioningError, match=f"cell {bad}:"):
        assemble_fourth_order(mesh, 1.0, lambda x, y: np.zeros_like(x))


def test_mesh_geometry_is_one_batch():
    mesh = make_mesh(3, "random", seed=5)
    geom = mesh.cell_geometry
    assert geom.h.shape == (mesh.n_cells,)
    one = mesh.geometry(4)
    np.testing.assert_array_equal(one.vertices, mesh.vertices[mesh.cells[4]])
    np.testing.assert_array_equal(one.edge_line_coeffs, geom.edge_line_coeffs[4])
    assert one.h == geom.h[4]
