"""Properties of the cell batch: batched builds match one-cell builds, local
matrices transform correctly under similarities, and invalid cells are
rejected by index."""

import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import NEAR_FLAT, squares_with

import quadseq.assembly as assembly
import quadseq.cli as cli
import quadseq.elements as elements
from quadseq.assembly import (
    CELL_CHUNK,
    ElementBatch,
    SparseSystem,
    assemble_brinkman,
    assemble_fourth_order,
    cell_matrix,
    scalar_dof_scaling,
    solve,
    unit_shape_elements,
    unit_shape_rule,
    vector_dof_scaling,
    velocity_blocks,
)
from quadseq.cases import brinkman_sin_stream, scalar_sin_squared
from quadseq.dofmap import ScalarDofMap, VectorDofMap
from quadseq.elements import (
    ElementConditioningError,
    ScalarElement,
    VectorElement,
    build_scalar_element,
    build_vector_element,
)
from quadseq.geometry import DegenerateCellError, NonConvexCellError, QuadGeometry, _pow2
from quadseq.mesh import Mesh, make_mesh
from quadseq.norms import brinkman_error_norms, scalar_error_norms
from quadseq.verify import random_convex_quads


def _quads(count, seed):
    return random_convex_quads(count, seed, max_skew=0.8, max_aspect=2.0)


def _assert_close(got, want, rel):
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1.0)


@settings(max_examples=20, deadline=None)
@given(count=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_batched_build_equals_one_cell_builds(count, seed):
    verts = _quads(count, seed).vertices
    batch = QuadGeometry(verts)
    se, ve = build_scalar_element(batch), build_vector_element(batch)
    for k, v in enumerate(verts):
        g = QuadGeometry(v)
        s1, v1 = build_scalar_element(g), build_vector_element(g)
        for got, want in [(se.coeff_matrix[k], s1.coeff_matrix),
                          (se.aggregation()[k], s1.aggregation()),
                          (ve.coeff_x[k], v1.coeff_x), (ve.coeff_y[k], v1.coeff_y),
                          (ve.divergence()[0][k], v1.divergence()[0])]:
            _assert_close(got, want, 1e-13)
        assert se.condition[k] == pytest.approx(s1.condition, rel=1e-12)


def _local_matrices(vertices):
    """Unit-shape Gram matrices of both elements for a batch of cells."""
    geom = QuadGeometry(vertices)
    unit = QuadGeometry(geom.local_vertices)
    pts, _, w = unit_shape_rule(geom, unit, 4)
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
    mesh = squares_with({bad: (0.999999, 0.0)})
    with pytest.raises(ElementConditioningError, match=f"cell {bad}:"):
        assemble_fourth_order(mesh, 1.0, lambda x, y: np.zeros_like(x))


@pytest.mark.parametrize("bad", [
    {9: (NEAR_FLAT, 0.0), 5: (NEAR_FLAT, 0.0), CELL_CHUNK + 3: (NEAR_FLAT, 0.0)},
    {CELL_CHUNK + 4: (NEAR_FLAT, 0.0), CELL_CHUNK + 3: (NEAR_FLAT, 0.0)},
    {7: (NEAR_FLAT, 0.0), 4: (0.0, NEAR_FLAT), 9: (0.0, NEAR_FLAT)},
    {7: (0.0, NEAR_FLAT), 4: (NEAR_FLAT, 0.0), 9: (NEAR_FLAT, 0.0)},
])
def test_conditioning_error_names_the_first_cell_of_a_repeated_shape(bad):
    # A bad shape that repeats is built once per chunk, on the first cell of
    # the chunk that has it, and shapes are built in order of their first
    # cell: the error names the lowest bad index.
    mesh = squares_with(bad)
    unit = mesh.cell_geometry.local_vertices
    assert all(np.array_equal(unit[k], unit[j]) for k in bad for j in bad if bad[k] == bad[j])
    with pytest.raises(ElementConditioningError, match=f"cell {min(bad)}:"):
        assemble_fourth_order(mesh, 1.0, lambda x, y: np.zeros_like(x))
    with pytest.raises(ElementConditioningError, match=f"cell {min(bad)}:"):
        velocity_blocks(mesh, VectorDofMap(mesh), 1.0, 1.0, 4,
                        lambda x, y: np.zeros(x.shape + (2,)))


def _count_cells(record, build):
    """``build``, recording how many cells each call builds."""
    def counting(geom):
        record.append(len(geom))
        return build(geom)
    return counting


def test_shapes_are_keyed_on_bits():
    # Two diamonds that differ only in the sign of a zero coordinate are two
    # shapes; an exact repeat of the first shares its element.
    diamond = np.array([[0, -0.5], [0.5, 0], [0, 0.5], [-0.5, 0]])
    signed = diamond.copy()
    signed[0, 0] = -0.0
    unit = QuadGeometry(np.stack([diamond, signed]))
    [[(cells, shapes, inv, X)]] = unit_shape_elements(unit, build_scalar_element).chunks
    assert (cells, shapes, inv) == (slice(0, 2), slice(0, 2), slice(None))
    assert X.shape == (2, 16, 12)

    unit = QuadGeometry(np.stack([diamond, signed, diamond, signed, signed]))
    [[(_, shapes, inv, X)]] = unit_shape_elements(unit, build_scalar_element).chunks
    np.testing.assert_array_equal(shapes, [0, 1])
    np.testing.assert_array_equal(inv, [0, 1, 0, 1, 1])
    assert X.shape == (2, 16, 12)


@pytest.mark.parametrize("build", [build_scalar_element, build_vector_element])
def test_batch_reforms_the_built_elements_bitwise(build, monkeypatch):
    # The batch keeps only the span weights X of each chunk; the elements it
    # re-forms from them have the built coefficients bit for bit.
    monkeypatch.setattr(assembly, "CELL_CHUNK", 16)
    built = []
    unit = QuadGeometry(make_mesh(6, "random", seed=4).cell_geometry.local_vertices)
    batch = unit_shape_elements(unit, build, lambda *task: built.append(task))
    assert batch.kind is type(built[0][2]) and len(batch.chunks) == len(built) == 3
    reformed = []
    batch.walk(lambda *task: reformed.append(task))
    for (cells, shapes, element, inv), again in zip(built, reformed, strict=True):
        assert (cells, shapes, inv) == again[:2] + again[3:]
        for name in ("coeff_matrix", "coeff_x", "coeff_y"):
            if hasattr(element, name):
                assert np.array_equal(getattr(element, name), getattr(again[2], name))
        if hasattr(element, "divergence"):
            for a, b in zip(element.divergence(), again[2].divergence(), strict=True):
                assert np.array_equal(a, b)


def _count_solves(monkeypatch):
    """Count the 16x16 nodal solves of every element build from here on."""
    solves, solve_nodal = [], elements._solve_nodal

    def counting(D, *args):
        solves.append(len(D))
        return solve_nodal(D, *args)
    monkeypatch.setattr(elements, "_solve_nodal", counting)
    return solves


def test_rectangular_chunks_build_one_shape(monkeypatch):
    # 64 rectangular cells in chunks of 16: assembly builds one element per
    # chunk, and the error norms reuse them without another build.
    monkeypatch.setattr(assembly, "CELL_CHUNK", 16)
    record = []
    monkeypatch.setattr(assembly, "build_scalar_element",
                        _count_cells(record, build_scalar_element))
    solves = _count_solves(monkeypatch)
    mesh = make_mesh(8, "rectangular")
    system = assemble_fourth_order(mesh, 1.0, SCALAR.source(1.0))
    scalar_error_norms(mesh, system.elements, system.dofmap.gather(solve(system)), SCALAR)
    assert record == [1] * 4
    assert solves == [1] * 4


def test_random_chunks_build_once_for_assembly_and_norms(monkeypatch):
    # Every cell of a random mesh is its own shape: 64 cells in chunks of 16
    # build 16 shapes per chunk, once, for both problems.
    monkeypatch.setattr(assembly, "CELL_CHUNK", 16)
    record = []
    for name, build in [("build_scalar_element", build_scalar_element),
                        ("build_vector_element", build_vector_element)]:
        monkeypatch.setattr(assembly, name, _count_cells(record, build))
    solves = _count_solves(monkeypatch)
    mesh = make_mesh(8, "random", seed=3)
    system = assemble_fourth_order(mesh, 1.0, SCALAR.source(1.0))
    scalar_error_norms(mesh, system.elements, system.dofmap.gather(solve(system)), SCALAR)
    system = assemble_brinkman(mesh, 1.0, 1.0, FLOW.source(1.0, 1.0))
    u, p, _ = system.split(solve(system))
    brinkman_error_norms(mesh, system.elements, system.dofmap.gather(u), FLOW, 1.0, 1.0, p)
    assert record == solves == [16] * 8


@pytest.mark.parametrize("build, element_type, integrate", [
    ("build_scalar_element", ScalarElement,
     lambda mesh: assemble_fourth_order(mesh, 1.0, SCALAR.source(1.0))),
    ("build_vector_element", VectorElement,
     lambda mesh: velocity_blocks(mesh, VectorDofMap(mesh), 1.0, 1.0, 4, FLOW.source(1.0, 1.0))),
], ids=["scalar", "vector"])
def test_chunk_element_and_tables_are_freed_before_the_next_build(
        build, element_type, integrate, monkeypatch):
    # Holding a chunk's element and its value/gradient/Hessian tables through
    # the next build raises the peak memory of a random-mesh study; each
    # build checks that nothing of the previous chunk is alive.
    monkeypatch.setattr(assembly, "CELL_CHUNK", 16)
    alive, builds = [], []

    def recording(geom):
        assert all(ref() is None for ref in alive)
        element = getattr(elements, build)(geom)
        alive.append(weakref.ref(element))
        builds.append(len(geom))
        return element

    def tabulate(self, points, original=element_type.tabulate):
        tables = original(self, points)
        alive.extend(weakref.ref(t) for t in tables)
        return tables

    monkeypatch.setattr(assembly, build, recording)
    monkeypatch.setattr(element_type, "tabulate", tabulate)
    integrate(make_mesh(8, "random", seed=5))
    assert builds == [16] * 4 and len(alive) > 4


# -- bitwise agreement with one element per cell ------------------------------
# Test-only copies of the loop bodies that built and tabulated the unit-shape
# element of every cell. Sharing elements between the cells of a shape must
# not change a bit of any local matrix, load or error.

SCALAR, FLOW = scalar_sin_squared(), brinkman_sin_stream()


def _one_element_per_cell(unit, build):
    for start in range(0, len(unit), CELL_CHUNK):
        cells = slice(start, start + CELL_CHUNK)
        yield cells, np.arange(len(unit))[cells], build(unit[cells]), None


def _per_cell_batch(mesh, build):
    unit = QuadGeometry(mesh.cell_geometry.local_vertices)
    chunks = []
    for cells, shapes, element, inv in _one_element_per_cell(unit, build):
        chunks.append([(cells, shapes, inv, element.solution)])
    return ElementBatch(unit, type(element), chunks)


def _per_cell_fourth_order(mesh, eps, f, quad_order=4):
    dm = ScalarDofMap(mesh)
    geom, unit = mesh.cell_geometry, mesh.unit_geometry
    pts, x, wts = unit_shape_rule(geom, unit, quad_order)
    fv = np.asarray(f(x[..., 0], x[..., 1]), dtype=float)
    A_hat, B_hat = np.empty((2, mesh.n_cells, 12, 12))
    F_hat = np.empty((mesh.n_cells, 12))
    for cells, _, element, _ in _one_element_per_cell(unit, build_scalar_element):
        val, grad, hess = element.tabulate(pts[cells])
        w = wts[cells]
        A_hat[cells] = np.einsum("nq,nqicd,nqjcd->nij", w, hess, hess)
        B_hat[cells] = np.einsum("nq,nqic,nqjc->nij", w, grad, grad)
        F_hat[cells] = np.matmul(np.swapaxes(val, -1, -2), (w * fv[cells])[..., None])[..., 0]
    h2 = _pow2(geom.h[:, None])
    lam = scalar_dof_scaling(geom.h)
    scale = lam[:, :, None] * lam[:, None, :]
    K_loc = scale * (eps**2 * A_hat / h2[..., None] + B_hat)
    dofs = dm.cell_dofs
    K = cell_matrix((dm.ndof, dm.ndof), [(dofs[:, :, None], dofs[:, None, :], K_loc)])
    rhs = lam * F_hat * h2
    free = dofs >= 0
    return SparseSystem(K, np.bincount(dofs[free], weights=rhs[free], minlength=dm.ndof), dm)


def _per_cell_velocity_blocks(mesh, dm, nu, alpha, g, f):
    geom, unit = mesh.cell_geometry, mesh.unit_geometry
    pts, x, wts = unit_shape_rule(geom, unit, g)
    fv = np.asarray(f(x[..., 0], x[..., 1]), dtype=float)
    G_hat, M_hat = np.empty((2, mesh.n_cells, 12, 12))
    F_hat = np.empty((mesh.n_cells, 12))
    for cells, _, element, _ in _one_element_per_cell(unit, build_vector_element):
        val, grad = element.tabulate(pts[cells])
        w = wts[cells]
        G_hat[cells] = np.einsum("nq,nqicd,nqjcd->nij", w, grad, grad)
        M_hat[cells] = np.einsum("nq,nqic,nqjc->nij", w, val, val)
        F_hat[cells] = np.einsum("nqjc,nq,nqc->nj", val, w, fv[cells])
    h = geom.h
    w = vector_dof_scaling(h) * dm.cell_signs
    A_loc = (w[:, :, None] * w[:, None, :]) * (nu * G_hat + alpha * _pow2(h[:, None, None]) * M_hat)
    return A_loc, F_hat, (x, wts), _per_cell_batch(mesh, build_vector_element)


def _assert_all_equal(got, want):
    for a, b in zip(got, want, strict=True):
        if isinstance(a, tuple):
            _assert_all_equal(a, b)
        else:
            assert np.array_equal(a, b)


@pytest.fixture(params=[(8, "rectangular"), (8, "trapezoidal"), (4, "random")],
                ids=lambda p: f"{p[1]}-{p[0]}")
def mesh(request):
    n, family = request.param
    return make_mesh(n, family, seed=3)


def test_shared_shapes_keep_fourth_order_system_bitwise(mesh, monkeypatch):
    system = assemble_fourth_order(mesh, 1.0, SCALAR.source(1.0))
    want = _per_cell_fourth_order(mesh, 1.0, SCALAR.source(1.0))
    assert np.array_equal(system.matrix.data, want.matrix.data)
    assert np.array_equal(system.rhs, want.rhs)

    dofs = system.dofmap.gather(solve(system))
    errors = scalar_error_norms(mesh, system.elements, dofs, SCALAR, eps=1.0)
    per_cell = _per_cell_batch(mesh, build_scalar_element)
    assert errors == scalar_error_norms(mesh, per_cell, dofs, SCALAR, eps=1.0)


def test_shared_shapes_keep_flow_system_bitwise(mesh, monkeypatch):
    f, g = FLOW.source(1.0, 1.0), (lambda x, y: 1.0 + x)
    dm = VectorDofMap(mesh)
    blocks = velocity_blocks(mesh, dm, 1.0, 1.0, 4, f)[:3]
    system = assemble_brinkman(mesh, 1.0, 1.0, f, g)
    u, p, _ = system.split(solve(system))
    dofs = system.dofmap.gather(u)
    errors = brinkman_error_norms(mesh, system.elements, dofs, FLOW, 1.0, 1.0, p)

    _assert_all_equal(blocks, _per_cell_velocity_blocks(mesh, dm, 1.0, 1.0, 4, f)[:3])
    monkeypatch.setattr(assembly, "velocity_blocks", _per_cell_velocity_blocks)
    want = assemble_brinkman(mesh, 1.0, 1.0, f, g)
    assert np.array_equal(system.matrix.data, want.matrix.data)
    assert np.array_equal(system.rhs, want.rhs)
    assert errors == brinkman_error_norms(mesh, want.elements, dofs, FLOW, 1.0, 1.0, p)


@pytest.mark.parametrize("family", ["rectangular", "trapezoidal", "random"])
def test_norms_on_the_assembly_batch_equal_a_fresh_batch(family):
    # Holding the batch through the solve changes nothing: the errors on the
    # assembly's elements equal those on a batch built afresh, bit for bit.
    mesh = make_mesh(8, family, seed=3)
    unit = QuadGeometry(mesh.cell_geometry.local_vertices)
    system = assemble_fourth_order(mesh, 1.0, SCALAR.source(1.0))
    dofs = system.dofmap.gather(solve(system))
    fresh = unit_shape_elements(unit, build_scalar_element)
    for got, want in zip(scalar_error_norms(mesh, system.elements, dofs, SCALAR, eps=1.0).values(),
                         scalar_error_norms(mesh, fresh, dofs, SCALAR, eps=1.0).values(),
                         strict=True):
        assert np.array_equal(got, want)

    system = assemble_brinkman(mesh, 1.0, 1.0, FLOW.source(1.0, 1.0), FLOW.divergence)
    u, p, _ = system.split(solve(system))
    dofs = system.dofmap.gather(u)
    fresh = unit_shape_elements(unit, build_vector_element)
    for got, want in zip(
            brinkman_error_norms(mesh, system.elements, dofs, FLOW, 1.0, 1.0, p).values(),
            brinkman_error_norms(mesh, fresh, dofs, FLOW, 1.0, 1.0, p).values(), strict=True):
        assert np.array_equal(got, want)


def test_mesh_geometry_is_one_batch():
    mesh = make_mesh(3, "random", seed=5)
    geom = mesh.cell_geometry
    assert geom.h.shape == (mesh.n_cells,)
    one = mesh.cell_geometry[4]
    np.testing.assert_array_equal(one.vertices, mesh.vertices[mesh.cells[4]])
    np.testing.assert_array_equal(one.forms, geom.forms[4])
    assert one.h == geom.h[4]
