"""Memory layouts of the tables the assembly kernels read.

The Gram matrices are ``einsum`` reductions whose summation order depends on
the strides of their operands, so a table with equal values in another
layout changes the last bits of the local matrices. A C-contiguous gradient
and Hessian table did exactly that: every value stayed equal, but the
fourth-order solve amplified the changed bits of the Hessian Gram matrix
and moved the h1 error of the random n = 64 study from 0x1.605a4cec30e5dp-11
to 0x1.605a4d2c26008p-11. These tests pin the strides and values of the
tables against test-local copies of the expressions that first made them
(``np.stack`` of swapped products), and the strides of the monomial
matrices that ``[inv]`` gathers spread from the cell shapes over the cells.
"""

import numpy as np
import pytest

from quadseq.assembly import unit_shape_elements, unit_shape_rule
from quadseq.elements import (
    _local_monomials,
    _scalar_tables,
    _vector_tables,
    _vt,
    build_scalar_element,
    build_vector_element,
)
from quadseq.geometry import _pow2
from quadseq.mesh import make_mesh
from quadseq.poly import DX, DY, MONOMIALS, vandermonde


def _swap(a):
    return np.swapaxes(a, -1, -2)


# -- reference copies of the table expressions --------------------------------

_EXP_I = np.array([m[0] for m in MONOMIALS])
_EXP_J = np.array([m[1] for m in MONOMIALS])


def _vandermonde(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    p = np.empty(pts.shape + (7,))
    p[..., 0] = 1.0
    p[..., 1] = pts
    p[..., 2:] = pts[..., None] ** np.arange(2, 7)
    return p[..., 0, _EXP_I] * p[..., 1, _EXP_J]


def _reference_scalar_tables(geom, C, points, inv=None):
    V, h = _swap(_vandermonde(geom.to_local(points))), geom.h
    if inv is not None:
        V, h = V[inv], h[inv]
    h = h[..., None, None, None]
    Cx, Cy = C @ DX.T, C @ DY.T
    val = _swap(C @ V)
    grad = np.stack([_swap(Cx @ V), _swap(Cy @ V)], axis=-1) / h
    hxx, hxy, hyy = (_swap(c @ V) for c in (Cx @ DX.T, Cx @ DY.T, Cy @ DY.T))
    hess = np.stack(
        [np.stack([hxx, hxy], -1), np.stack([hxy, hyy], -1)], axis=-2
    ) / _pow2(h[..., None])
    return val, grad, hess


def _reference_vector_tables(geom, Cx, Cy, points, inv=None):
    V, h = _swap(_vandermonde(geom.to_local(points))), geom.h
    if inv is not None:
        V, h = V[inv], h[inv]
    val = np.stack([_swap(Cx @ V), _swap(Cy @ V)], axis=-1)
    rows = [np.stack([_swap((C @ DX.T) @ V), _swap((C @ DY.T) @ V)], -1) for C in (Cx, Cy)]
    grad = np.stack(rows, axis=-2) / h[..., None, None, None, None]
    return val, grad


def _assert_same(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and a.strides == b.strides
        assert np.array_equal(a, b)


@pytest.fixture(params=[(8, "random"), (4, "trapezoidal"), (2, "rectangular")],
                ids=lambda p: f"{p[1]}-{p[0]}")
def unit_rule(request):
    n, family = request.param
    mesh = make_mesh(n, family, seed=1)
    return (mesh.unit_geometry, *unit_shape_rule(mesh.cell_geometry, mesh.unit_geometry, 4))


def test_vandermonde_layout(unit_rule):
    _, pts, _, _ = unit_rule
    for points in (pts, pts[0], pts[..., :3, :]):
        _assert_same([vandermonde(points)], [_vandermonde(points)])


def test_tabulated_tables_keep_their_layout(unit_rule):
    unit, pts, _, _ = unit_rule
    se, ve = build_scalar_element(unit), build_vector_element(unit)
    _assert_same(_scalar_tables(unit, se.coeff_matrix, pts),
                 _reference_scalar_tables(unit, se.coeff_matrix, pts))
    _assert_same(_vector_tables(unit, ve.coeff_x, ve.coeff_y, pts),
                 _reference_vector_tables(unit, ve.coeff_x, ve.coeff_y, pts))


def test_one_cell_tables_keep_their_layout(unit_rule):
    unit, pts, _, _ = unit_rule
    cell, p = unit[0], pts[0]
    se, ve = build_scalar_element(cell), build_vector_element(cell)
    _assert_same(se.tabulate(p), _reference_scalar_tables(cell, se.coeff_matrix, p))
    _assert_same(ve.tabulate(p), _reference_vector_tables(cell, ve.coeff_x, ve.coeff_y, p))


def _shared_chunks(unit, build):
    chunks = []
    unit_shape_elements(unit, build, lambda *chunk: chunks.append(chunk))
    return chunks


def test_field_tables_with_gathers_keep_their_layout(unit_rule):
    unit, pts, _, _ = unit_rule
    rng = np.random.default_rng(0)
    for cells, shapes, element, inv in _shared_chunks(unit, build_scalar_element):
        dofs = rng.standard_normal((len(unit[cells]), 12))
        C = np.einsum("...j,...jm->...m", dofs, element.coeff_matrix[inv])[..., None, :]
        want = _reference_scalar_tables(element.geometry, C, pts[shapes], inv)
        _assert_same(element.field_tables(dofs, pts[shapes], inv),
                     [want[0][..., 0], want[1][..., 0, :], want[2][..., 0, :, :]])
    for cells, shapes, element, inv in _shared_chunks(unit, build_vector_element):
        dofs = rng.standard_normal((len(unit[cells]), 12))
        Cx, Cy = (np.einsum("...j,...jm->...m", dofs, C[inv])[..., None, :]
                  for C in (element.coeff_x, element.coeff_y))
        want = _reference_vector_tables(element.geometry, Cx, Cy, pts[shapes], inv)
        _assert_same(element.field_tables(dofs, pts[shapes], inv),
                     [want[0][..., 0, :], want[1][..., 0, :, :]])


def test_gathered_monomials_keep_their_layout(unit_rule):
    # A per-shape monomial matrix gathered to the cells has the strides of
    # one built from the gathered local points.
    unit, pts, _, _ = unit_rule
    for _, shapes, element, inv in _shared_chunks(unit, build_scalar_element):
        V, h = _local_monomials(element.geometry, pts[shapes], inv)
        want_V = _vt(element.geometry.to_local(pts[shapes]))[inv]
        assert V.strides == want_V.strides and np.array_equal(V, want_V)
        assert np.array_equal(h, element.geometry.h[inv])
