"""Discrete exact-sequence verification and the inf-sup witness.

The three global spaces form the chain

    scalar space --rotated gradient--> vector space --divergence--> pressures

and exactness is an integer statement: the divergence matrix is onto the
mean-zero pressures, its kernel has the dimension of the scalar space, and
the rotated gradients of the scalar basis span that kernel. Ranks are
computed by dense SVD with a relative singular-value cutoff, and the report
records the spectral gap at the cut. The per-cell curl re-interpolation
check is the one the element certificate runs (``quadseq.verify``), applied
to the unit-shape cells of the mesh.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh as scipy_eigh

from .assembly import (
    velocity_blocks,
    cell_entries,
    scalar_dof_scaling,
    vector_dof_scaling,
)
from .cases import brinkman_sin_stream
from .dofmap import ScalarDofMap, VectorDofMap
from .elements import build_scalar_element, build_vector_element, vector_dof_values
from .geometry import QuadGeometry
from .mesh import Mesh
from .poly import DX, DY, vandermonde
from .verify import _curl_inclusion_residual

__all__ = [
    "divergence_matrix",
    "curl_matrix",
    "verify_exact_sequence",
    "SequenceReport",
    "inf_sup_constant",
]


def divergence_matrix(mesh: Mesh):
    """Dense matrix of the cellwise divergence: vector DoFs -> cell constants."""
    dm = VectorDofMap(mesh)
    geom = mesh.cell_geometry
    element = build_vector_element(QuadGeometry(geom.local_vertices))
    return _divergence_matrix(mesh, dm, element), dm


def _divergence_matrix(mesh, dm, element):
    geom = mesh.cell_geometry
    div_phys = (
        vector_dof_scaling(geom.h) * dm.cell_signs * element.div_constants / geom.h[:, None]
    )
    return _dense((mesh.n_cells, dm.ndof),
                  [(np.arange(mesh.n_cells)[:, None], dm.cell_dofs, div_phys)])


def _dense(shape, blocks):
    rows, cols, vals = cell_entries(blocks)
    out = np.zeros(shape)
    np.add.at(out, (rows, cols), vals)
    return out


def curl_matrix(mesh: Mesh):
    """Map taking scalar DoFs to the vector DoFs of the rotated gradient.

    Vertex part: (w_y, -w_x) at each interior vertex. Edge part: the normal
    integral of the rotated gradient equals the difference of the endpoint
    values of w taken along the edge's global tangent.
    """
    sdm = ScalarDofMap(mesh)
    vdm = VectorDofMap(mesh)
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
    C = sp.coo_matrix((vals, (rows, cols)), shape=(vdm.ndof, sdm.ndof))
    return C.toarray(), sdm, vdm


@dataclass
class SequenceReport:
    dims: dict
    rank_div: int
    nullity_div: int
    rank_curl: int
    rank_combined: int
    sv_gap: float
    div_curl_max: float
    curl_reinterp_residual: float
    curl_global_consistency: float
    commuting_residual: float
    cutoff: float
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "dims": self.dims,
            "rank_div": self.rank_div,
            "nullity_div": self.nullity_div,
            "rank_curl": self.rank_curl,
            "rank_combined": self.rank_combined,
            "sv_gap": self.sv_gap,
            "div_curl_max": self.div_curl_max,
            "curl_reinterp_residual": self.curl_reinterp_residual,
            "curl_global_consistency": self.curl_global_consistency,
            "commuting_residual": self.commuting_residual,
            "cutoff": self.cutoff,
            "checks": self.checks,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _rank(singular_values: np.ndarray, cutoff: float):
    if len(singular_values) == 0 or singular_values[0] == 0.0:
        return 0, np.inf
    thresh = cutoff * singular_values[0]
    rank = int((singular_values > thresh).sum())
    if rank == 0 or rank >= len(singular_values):
        gap = np.inf
    else:
        below = singular_values[rank]
        gap = np.inf if below == 0 else singular_values[rank - 1] / below
    return rank, gap


def verify_exact_sequence(mesh: Mesh, cutoff: float = 1e-9, probe=None,
                          tol: float = 1e-10) -> SequenceReport:
    """Check exactness of the discrete sequence on one mesh.

    Verifies: rotated gradients of the scalar basis land in the vector space
    (per-cell re-interpolation and global DoF consistency), the divergence
    matrix annihilates them, its rank is the pressure dimension N_K - 1, its
    nullity is the scalar dimension 3 N_V^i, the rotated-gradient image
    spans the kernel, and the per-cell commuting identity: the divergence of
    the interpolant integrates to the boundary flux for a smooth probe.
    """
    geom = mesh.cell_geometry
    unit = QuadGeometry(geom.local_vertices)
    sc, vc = build_scalar_element(unit), build_vector_element(unit)
    vdm = VectorDofMap(mesh)
    D = _divergence_matrix(mesh, vdm, vc)
    C, sdm, _ = curl_matrix(mesh)

    sv = np.linalg.svd(D, compute_uv=False)
    rank_div, gap = _rank(sv, cutoff)
    nullity = vdm.ndof - rank_div

    _, s_full, Vt = np.linalg.svd(D)
    kernel = Vt[rank_div:, :].T

    rank_curl, _ = _rank(np.linalg.svd(C, compute_uv=False), cutoff)
    combined = np.hstack([C, kernel])
    rank_combined, _ = _rank(np.linalg.svd(combined, compute_uv=False), cutoff)

    div_curl_max = float(np.abs(D @ C).max()) if C.size else 0.0

    # Per cell: the rotated gradient of each scalar basis function,
    # re-interpolated through the vector DoFs, must reproduce itself.
    reinterp = float(_curl_inclusion_residual(unit, sc, vc)[0].max())

    # Global consistency: push a random scalar coefficient vector through the
    # matrix and compare against per-cell DoFs of the local rotated gradient.
    rng = np.random.default_rng(0)
    w = rng.standard_normal(sdm.ndof) if sdm.ndof else np.zeros(0)
    u = C @ w if sdm.ndof else np.zeros(vdm.ndof)
    c = sdm.gather(w) * scalar_dof_scaling(geom.h)
    h = geom.h[:, None]
    field_x = np.einsum("nj,njm->nm", c, sc.coeff_matrix @ DY.T) / h
    field_y = np.einsum("nj,njm->nm", c, -(sc.coeff_matrix @ DX.T)) / h

    def rotated_gradient(x, y):
        V = vandermonde(geom.to_local(np.stack([x, y], axis=-1)))
        return np.stack([np.einsum("nmk,nk->nm", V, f) for f in (field_x, field_y)], axis=-1)

    sigma = vector_dof_values(geom, rotated_gradient)
    consistency = float(np.abs(sigma - vdm.gather(u)).max())

    # Commuting identity for a smooth probe: cellwise divergence of the
    # interpolant integrates to the boundary flux.
    sigma = vector_dof_values(geom, probe or brinkman_sin_stream().velocity)
    div_const = ((sigma * vector_dof_scaling(geom.h)) * vc.div_constants).sum(-1) / geom.h
    commuting = float(np.abs(div_const * geom.area - sigma[:, :4].sum(-1)).max())

    dims = {
        "scalar": sdm.ndof,
        "vector": vdm.ndof,
        "pressure": mesh.n_cells - 1,
        "n_cells": mesh.n_cells,
        "interior_vertices": mesh.n_interior_vertices,
        "interior_edges": mesh.n_interior_edges,
    }
    checks = {
        "rank_div_is_pressure_dim": rank_div == mesh.n_cells - 1,
        "nullity_is_scalar_dim": nullity == sdm.ndof,
        "curl_injective": rank_curl == sdm.ndof,
        "curl_spans_kernel": rank_combined == nullity,
        "div_curl_zero": div_curl_max <= tol,
        "curl_reinterpolation": reinterp <= tol,
        "curl_global_consistency": consistency <= 1e-8,
        "commuting": commuting <= tol,
        "alternating_sum_zero": sdm.ndof - vdm.ndof + (mesh.n_cells - 1) == 0,
    }
    return SequenceReport(
        dims=dims, rank_div=rank_div, nullity_div=nullity, rank_curl=rank_curl,
        rank_combined=rank_combined, sv_gap=gap, div_curl_max=div_curl_max,
        curl_reinterp_residual=reinterp, curl_global_consistency=consistency,
        commuting_residual=commuting, cutoff=cutoff, checks=checks,
    )


def inf_sup_constant(mesh: Mesh, quad_order: int = 4) -> float:
    """Smallest nonzero generalized singular value of the divergence form.

    beta = min over mean-zero cell pressures q of
    max over v of b(v, q) / (||v||_1h ||q||_0), computed densely from the
    velocity H1 Gram matrix and the cell-area pressure mass.
    """
    dm = VectorDofMap(mesh)
    loc, b_rows, _, _ = velocity_blocks(mesh, dm, 1.0, 1.0, quad_order)
    dofs = dm.cell_dofs
    X = _dense((dm.ndof, dm.ndof), [(dofs[:, :, None], dofs[:, None, :], loc)])
    B = _dense((mesh.n_cells, dm.ndof), [(np.arange(mesh.n_cells)[:, None], dofs, b_rows)])
    S = B @ np.linalg.solve(X, B.T)
    M_p = np.diag(mesh.cell_geometry.area)
    vals = scipy_eigh(S, M_p, eigvals_only=True)
    vals = np.sort(vals)
    return float(np.sqrt(max(vals[1], 0.0)))
