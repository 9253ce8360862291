"""Global numbering of the scalar, vector, and pressure unknowns.

Scalar space: three unknowns (value, d/dx, d/dy) per interior vertex; all
DoFs at boundary vertices are constrained to zero. Vector space: two
component unknowns per interior vertex plus one signed normal-integral
unknown per interior edge, measured in the edge's global frame n_E (see
``Mesh``); boundary edges and boundary vertices are constrained. Constrained
slots carry index -1 in the local-to-global tables. The maps are the one
source of the sequence's discrete structure: ``curl_operator`` maps the
scalar unknowns to the vector unknowns of their rotated gradients, and
``VectorDofMap.incidence`` gives the signed cell-edge incidence B, from
which ``sequence`` forms the divergence and which the Brinkman solve
(``assembly._StreamSolver``) reads. ``kind`` names the system assembled on
a map (``assembly.SparseSystem``).
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh

__all__ = ["ScalarDofMap", "VectorDofMap", "curl_operator"]


def _vertex_dofs(mesh: Mesh, k: int) -> np.ndarray:
    """(n_vertices, k) global indices of k unknowns per interior vertex,
    numbered vertex by vertex in vertex order, and -1 at boundary vertices."""
    interior = ~mesh.vertex_is_boundary
    vd = -np.ones((mesh.n_vertices, k), dtype=int)
    vd[interior] = np.arange(k * int(interior.sum())).reshape(-1, k)
    return vd


def _cell_vertex_dofs(mesh: Mesh, vd: np.ndarray) -> np.ndarray:
    """(n_cells, 4 k) local-to-global table of the vertex unknowns ``vd``:
    the first unknown at the four vertices, then the second, and so on."""
    return vd[mesh.cells].transpose(0, 2, 1).reshape(mesh.n_cells, -1)


class _DofMap:
    """The ``gather`` both maps share."""

    def gather(self, x: np.ndarray) -> np.ndarray:
        """(n_cells, 12) local DoF values of a global coefficient vector, in
        the cells' own sign convention (zeros where constrained)."""
        free = self.cell_dofs >= 0
        out = np.zeros(self.cell_dofs.shape)
        out[free] = x[self.cell_dofs[free]] * self.cell_signs[free]
        return out


class ScalarDofMap(_DofMap):
    """value/d_x/d_y unknowns at interior vertices; dim = 3 * N_V^i. Every
    local-to-global sign is +1."""

    kind = "scalar"

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        # vertex_dofs[v] = (value, d/dx, d/dy) global indices or -1.
        self.vertex_dofs = _vertex_dofs(mesh, 3)
        self.ndof = 3 * mesh.n_interior_vertices
        self.cell_dofs = _cell_vertex_dofs(mesh, self.vertex_dofs)
        self.cell_signs = np.ones(self.cell_dofs.shape)


class VectorDofMap(_DofMap):
    """Component unknowns at interior vertices plus normal-mean unknowns on
    interior edges; dim = 2 * N_V^i + N_E^i. The Brinkman system adds one
    pressure per cell and the mean-zero multiplier.

    The global edge unknown is the integral of v . n_E over the edge. A
    cell's local edge DoF uses its outward normal, so the local-to-global
    map carries a sign: +1 when the outward normal coincides with n_E,
    which is where the cell runs the edge from its higher to its lower
    vertex index (``Mesh.cell_edge_signs``).
    """

    kind = "brinkman"

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.vertex_dofs = _vertex_dofs(mesh, 2)
        n_v = 2 * mesh.n_interior_vertices
        interior_e = ~mesh.edge_is_boundary
        self.ndof = n_v + mesh.n_interior_edges
        ed = -np.ones(mesh.n_edges, dtype=int)
        ed[interior_e] = np.arange(n_v, self.ndof)
        self.edge_dofs = ed
        self.cell_dofs = np.concatenate(
            [ed[mesh.cell_edges], _cell_vertex_dofs(mesh, self.vertex_dofs)], axis=1)
        self.cell_signs = np.concatenate(
            [mesh.cell_edge_signs, np.ones((mesh.n_cells, 8))], axis=1)

    def incidence(self):
        """The signed cell-edge incidence B, a CSR matrix (n_cells, ndof)
        (``scipy.sparse``, imported on the first call): each cell's sign
        (``cell_signs``) at each of its interior edge unknowns, so that the
        divergence is diag(1 / area) B. Its rows are sorted, as those of the
        pressure block of the assembled Brinkman matrix are."""
        import scipy.sparse as sp

        dofs = self.cell_dofs[:, :4]
        free = dofs >= 0
        cells = np.broadcast_to(np.arange(self.mesh.n_cells)[:, None], free.shape)
        return sp.csr_matrix((self.cell_signs[:, :4][free], (cells[free], dofs[free])),
                             shape=(self.mesh.n_cells, self.ndof))


def curl_operator(sdm: ScalarDofMap, vdm: VectorDofMap):
    """Sparse CSR matrix (``scipy.sparse.csr_matrix``, imported on the first
    call) taking scalar DoFs to the vector DoFs of the rotated gradient.

    Vertex part: (w_y, -w_x) at each interior vertex. Edge part: the normal
    integral of the rotated gradient equals the difference of the endpoint
    values of w taken along the edge's global tangent. No entry repeats, so
    the matrix holds exactly the values +1 and -1.
    """
    import scipy.sparse as sp

    mesh = sdm.mesh
    inner = ~mesh.vertex_is_boundary
    # t_E = -(unit vector from a to b) for edge (a, b), so the integral of
    # d w / d t_E along the edge is w(V_a) - w(V_b).
    ends = sdm.vertex_dofs[mesh.edge_vertices, 0]
    edge = np.broadcast_to(vdm.edge_dofs[:, None], ends.shape)
    free = (edge >= 0) & (ends >= 0)
    rows = np.concatenate([vdm.vertex_dofs[inner, 0], vdm.vertex_dofs[inner, 1], edge[free]])
    cols = np.concatenate([sdm.vertex_dofs[inner, 2], sdm.vertex_dofs[inner, 1], ends[free]])
    vals = np.concatenate([np.ones(inner.sum()), -np.ones(inner.sum()),
                           np.broadcast_to([1.0, -1.0], ends.shape)[free]])
    return sp.csr_matrix((vals, (rows, cols)), shape=(vdm.ndof, sdm.ndof))
