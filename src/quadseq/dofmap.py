"""Global numbering of the scalar, vector, and pressure unknowns.

Scalar space: three unknowns (value, d/dx, d/dy) per interior vertex; all
DoFs at boundary vertices are constrained to zero. Vector space: two
component unknowns per interior vertex plus one signed normal-integral
unknown per interior edge, measured in the edge's global frame n_E (see
``Mesh``); boundary edges and boundary vertices are constrained. Constrained
slots carry index -1 in the local-to-global tables. ``curl_operator`` maps
the scalar unknowns to the vector unknowns of their rotated gradients.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh

__all__ = ["ScalarDofMap", "VectorDofMap", "curl_operator"]


class ScalarDofMap:
    """value/d_x/d_y unknowns at interior vertices; dim = 3 * N_V^i."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        interior = ~mesh.vertex_is_boundary
        rank = -np.ones(mesh.n_vertices, dtype=int)
        rank[interior] = np.arange(interior.sum())
        self.ndof = 3 * int(interior.sum())

        # vertex_dofs[v] = (value, d/dx, d/dy) global indices or -1.
        vd = -np.ones((mesh.n_vertices, 3), dtype=int)
        vd[interior, 0] = 3 * rank[interior]
        vd[interior, 1] = 3 * rank[interior] + 1
        vd[interior, 2] = 3 * rank[interior] + 2
        self.vertex_dofs = vd

        cd = np.empty((mesh.n_cells, 12), dtype=int)
        cd[:, 0:4] = vd[mesh.cells, 0]
        cd[:, 4:8] = vd[mesh.cells, 1]
        cd[:, 8:12] = vd[mesh.cells, 2]
        self.cell_dofs = cd

    def gather(self, x: np.ndarray) -> np.ndarray:
        """(n_cells, 12) local DoF values of a global coefficient vector
        (zeros where constrained)."""
        free = self.cell_dofs >= 0
        out = np.zeros(self.cell_dofs.shape)
        out[free] = x[self.cell_dofs[free]]
        return out


class VectorDofMap:
    """Component unknowns at interior vertices plus normal-mean unknowns on
    interior edges; dim = 2 * N_V^i + N_E^i.

    The global edge unknown is the integral of v . n_E over the edge. A
    cell's local edge DoF uses its outward normal, so the local-to-global
    map carries a sign: +1 when the outward normal coincides with n_E,
    which is where the cell runs the edge from its higher to its lower
    vertex index (``Mesh.cell_edge_signs``).
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        interior_v = ~mesh.vertex_is_boundary
        n_vi = int(interior_v.sum())
        vrank = -np.ones(mesh.n_vertices, dtype=int)
        vrank[interior_v] = np.arange(n_vi)

        interior_e = ~mesh.edge_is_boundary
        erank = -np.ones(mesh.n_edges, dtype=int)
        erank[interior_e] = np.arange(int(interior_e.sum()))

        self.ndof = 2 * n_vi + int(interior_e.sum())

        vd = -np.ones((mesh.n_vertices, 2), dtype=int)
        vd[interior_v, 0] = 2 * vrank[interior_v]
        vd[interior_v, 1] = 2 * vrank[interior_v] + 1
        self.vertex_dofs = vd

        ed = -np.ones(mesh.n_edges, dtype=int)
        ed[interior_e] = 2 * n_vi + erank[interior_e]
        self.edge_dofs = ed

        cd = np.empty((mesh.n_cells, 12), dtype=int)
        sg = np.ones((mesh.n_cells, 12), dtype=float)
        cd[:, 0:4] = ed[mesh.cell_edges]
        sg[:, 0:4] = mesh.cell_edge_signs
        cd[:, 4:8] = vd[mesh.cells, 0]
        cd[:, 8:12] = vd[mesh.cells, 1]
        self.cell_dofs = cd
        self.cell_signs = sg

    def gather(self, x: np.ndarray) -> np.ndarray:
        """(n_cells, 12) local DoF values (outward-normal convention) of a global vector."""
        free = self.cell_dofs >= 0
        out = np.zeros(self.cell_dofs.shape)
        out[free] = x[self.cell_dofs[free]] * self.cell_signs[free]
        return out


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
