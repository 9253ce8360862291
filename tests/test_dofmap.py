"""The DoF maps against a per-cell loop reference.

The reference numbers the interior vertices and edges one at a time in
index order, and fills each cell's row of the local-to-global table, its
signs and its gathered values slot by slot. Only the mesh's own edge
numbering is taken as given.
"""

import numpy as np
import pytest

from quadseq.dofmap import ScalarDofMap, VectorDofMap
from quadseq.mesh import Mesh, make_mesh


def _punched():
    """The 5 x 5 grid of the unit square without its centre cell."""
    grid = make_mesh(5, "rectangular")
    return Mesh(grid.vertices, np.delete(grid.cells, 12, axis=0))


MESHES = [make_mesh(n, family, seed=4) for family in ("rectangular", "trapezoidal", "random")
          for n in (2, 3, 8)] + [_punched()]
IDS = [f"{m.family}-{m.n}" for m in MESHES]


def _reference(mesh, per_vertex):
    """(vertex_dofs, edge_dofs, cell_dofs, cell_signs), filled one vertex,
    edge and cell slot at a time; edge unknowns only for ``per_vertex`` = 2."""
    vertex_dofs = [[-1] * per_vertex for _ in range(mesh.n_vertices)]
    count = 0
    for v in range(mesh.n_vertices):
        if not mesh.vertex_is_boundary[v]:
            vertex_dofs[v] = list(range(count, count + per_vertex))
            count += per_vertex
    edge_dofs = [-1] * mesh.n_edges
    if per_vertex == 2:
        for e in range(mesh.n_edges):
            if not mesh.edge_is_boundary[e]:
                edge_dofs[e] = count
                count += 1
    cell_dofs, cell_signs = [], []
    for k, cell in enumerate(mesh.cells):
        dofs, signs = [], []
        if per_vertex == 2:
            for j in range(4):
                a, b = int(cell[j]), int(cell[(j + 1) % 4])
                e = int(mesh.cell_edges[k, j])
                assert sorted((a, b)) == list(mesh.edge_vertices[e])
                dofs.append(edge_dofs[e])
                signs.append(1.0 if a > b else -1.0)
        for component in range(per_vertex):
            for v in cell:
                dofs.append(vertex_dofs[v][component])
                signs.append(1.0)
        cell_dofs.append(dofs)
        cell_signs.append(signs)
    return count, vertex_dofs, edge_dofs, cell_dofs, cell_signs


def _gathered(x, cell_dofs, cell_signs):
    return [[x[d] * s if d >= 0 else 0.0 for d, s in zip(dofs, signs)]
            for dofs, signs in zip(cell_dofs, cell_signs)]


@pytest.mark.parametrize("mesh", MESHES, ids=IDS)
@pytest.mark.parametrize("dofmap, per_vertex", [(ScalarDofMap, 3), (VectorDofMap, 2)],
                         ids=["scalar", "vector"])
def test_dof_map_matches_a_per_cell_loop(mesh, dofmap, per_vertex):
    dm = dofmap(mesh)
    ndof, vertex_dofs, edge_dofs, cell_dofs, cell_signs = _reference(mesh, per_vertex)
    assert dm.ndof == ndof
    assert np.array_equal(dm.vertex_dofs, vertex_dofs)
    if per_vertex == 2:
        assert np.array_equal(dm.edge_dofs, edge_dofs)
    assert np.array_equal(dm.cell_dofs, cell_dofs)
    assert np.array_equal(dm.cell_signs, cell_signs)
    x = np.random.default_rng(0).standard_normal(dm.ndof)
    assert np.array_equal(dm.gather(x), _gathered(x, cell_dofs, cell_signs))


@pytest.mark.parametrize("mesh", MESHES, ids=IDS)
def test_incidence_matches_a_per_cell_loop(mesh):
    dm = VectorDofMap(mesh)
    _, _, _, cell_dofs, cell_signs = _reference(mesh, 2)
    want = np.zeros((mesh.n_cells, dm.ndof))
    for k, (dofs, signs) in enumerate(zip(cell_dofs, cell_signs)):
        for d, s in zip(dofs[:4], signs[:4]):
            if d >= 0:
                want[k, d] = s
    B = dm.incidence()
    assert B.format == "csr" and B.has_canonical_format
    assert np.array_equal(B.toarray(), want)
