"""Discrete exact-sequence verification and the inf-sup witness.

The three global spaces form the chain

    scalar space --rotated gradient--> vector space --divergence--> pressures

and exactness is an integer statement: the divergence matrix D is onto the
mean-zero pressures, its kernel has the dimension of the scalar space, and
the rotated gradients of the scalar basis span that kernel. D C = 0 holds
exactly: the curl matrix C (+-1) and D (the signed edge incidence over the
cell areas) come from the DoF maps alone. The element enters through two
per-cell identities, which the element certificate (``quadseq.verify``) also
runs: each rotated scalar gradient re-interpolates to itself (C is the curl)
and each vector basis field's divergence integrates to its outward flux (D
is the divergence). They run on the cells in slices of
``assembly.TASK_CELLS``, which bounds their temporaries: on a random mesh
with n = 32 the certificate peaks at 129 MB, against 163 MB with all cells
in one batch. Ranks are relative to CUTOFF. Rank D and the gap at the
cut come from the value-only SVD of D, the one dense matrix; C is injective
by the extreme eigenvalues of the sparse C^T C, and rank [C | ker D] =
nullity(D) + rank(D C) needs no kernel basis. The inf-sup constant forms
no dense matrix: it is the extreme eigenvalue of an operator that one
stream-function sweep of the Brinkman solve applies, so it needs a mesh of
Euler characteristic 1, as that solve does.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .assembly import _StreamSolver, _slices, assemble_brinkman, cell_matrix, scalar_dof_scaling
from .dofmap import ScalarDofMap, VectorDofMap, curl_operator
from .elements import _build_pair, vector_dof_values
from .geometry import QuadGeometry
from .mesh import Mesh
from .poly import DX, DY, vandermonde
from .verify import _curl_inclusion_residual, _div_flux_residual, _fold_max

__all__ = [
    "divergence_matrix",
    "curl_matrix",
    "verify_exact_sequence",
    "SequenceReport",
    "inf_sup_constant",
]

CUTOFF = 1e-9  # relative singular-value cutoff of every rank
TOL = 1e-10    # bound on the residuals of the exact identities


def divergence_matrix(mesh: Mesh):
    """Sparse CSR matrix of the cellwise divergence, vector DoFs -> cell
    constants, with the vector DoF map: the signed edge incidence with each
    row divided by the cell area."""
    dm = VectorDofMap(mesh)
    rows = dm.cell_signs[:, :4] / mesh.cell_geometry.area[:, None]
    D = cell_matrix((mesh.n_cells, dm.ndof),
                    [(np.arange(mesh.n_cells)[:, None], dm.cell_dofs[:, :4], rows)])
    return D.tocsr(), dm


def curl_matrix(mesh: Mesh):
    """Sparse CSR map taking scalar DoFs to the vector DoFs of the rotated
    gradient (``dofmap.curl_operator``), with the two DoF maps."""
    sdm, vdm = ScalarDofMap(mesh), VectorDofMap(mesh)
    return curl_operator(sdm, vdm), sdm, vdm


@dataclass
class SequenceReport:
    """The ranks, residuals and checks of ``verify_exact_sequence``.

    ``sv_gap`` is sigma_r / sigma_{r+1} of D at the cut, infinite when no
    singular value lies below it (as when D has none). ``to_dict`` and
    ``to_json`` write a non-finite gap as null, so the JSON is strict: it
    holds no NaN or Infinity, and ``to_json`` raises rather than write one.
    sigma_{r+1} is at the rounding level, so ``sv_gap`` depends on the BLAS
    thread count (random mesh, n = 32, seed 3: 5.20e14 with one OpenBLAS
    thread, 3.02e14 with two), while every other field does not.
    """

    dims: dict
    rank_div: int
    nullity_div: int
    rank_curl: int
    rank_combined: int
    sv_gap: float
    div_curl_max: float
    curl_reinterp_residual: float
    div_flux_residual: float
    curl_global_consistency: float
    cutoff: float
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        gap = self.sv_gap if np.isfinite(self.sv_gap) else None
        return {**asdict(self), "sv_gap": gap, "passed": self.passed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"


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


def _curl_rank(C):
    """rank C and sigma_1(C) for the sparse curl matrix C.

    With lambda_min > CUTOFF * lambda_max for the extreme eigenvalues of
    C^T C, sigma_min(C) / sigma_1(C) exceeds sqrt(CUTOFF), far above the
    relative cut of a rank, so C is injective. On meshes that ratio depends
    on the topology only (about 1.57 / n on an n x n grid). Otherwise, or
    when C^T C is singular and its factor fails, the rank is counted from
    the singular values of the dense C. The fixed start vector makes
    repeated calls bit-identical.
    """
    from scipy.sparse.linalg import eigsh

    n_s = C.shape[1]
    if n_s == 0:
        return 0, 0.0
    G = (C.T @ C).tocsc()
    v0 = np.ones(n_s)
    try:
        lam_max = eigsh(G, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]
        lam_min = eigsh(G, k=1, sigma=0, v0=v0, return_eigenvectors=False)[0]
    except RuntimeError:  # a singular factor, or no convergence
        lam_max = lam_min = 0.0
    if lam_min > CUTOFF * lam_max:
        return n_s, float(np.sqrt(lam_max))
    sv = np.linalg.svd(C.toarray(), compute_uv=False)
    return _rank(sv, CUTOFF)[0], sv[0]


def verify_exact_sequence(mesh: Mesh) -> SequenceReport:
    """Check exactness of the discrete sequence on one mesh.

    Verifies: rotated gradients of the scalar basis land in the vector space
    (per-cell re-interpolation and global DoF consistency), the divergence
    matrix annihilates them, its rank is the pressure dimension N_K - 1, its
    nullity is the scalar dimension 3 N_V^i, the rotated-gradient image
    spans the kernel, and the flux identity of the basis fields. The flux
    identity also gives the commuting identity of the interpolant (its
    divergence integrates to its boundary flux), whose residual is a linear
    combination of the per-field residuals, so the report does not repeat it.

    The per-cell checks run in slices of ``assembly.TASK_CELLS`` cells: each
    slice builds its elements, checks them and compares its rotated
    gradients with the global curl matrix, and only the running maxima
    outlive it. A cell's residuals do not depend on its slice, so the
    report is the same bit for bit for every slice size.

    Kernel spanning uses rank [C | ker D] = nullity(D) + rank(D C) and
    ||D x|| >= sigma_r(D) * dist(x, ker D) for every x, where ker D is spanned
    by the right singular vectors that rank(D) drops and sigma_r(D) is the
    smallest singular value it keeps. So a unit w with dist(C w, ker D) above
    CUTOFF * sigma_1(C) has ||D C w|| above CUTOFF * sigma_r(D) * sigma_1(C),
    the cut of rank(D C): the count is at least as strict as a relative cut
    on the stacked [C | ker D], which sits at CUTOFF * sigma_1 of the stack.
    """
    geom = mesh.cell_geometry
    unit = QuadGeometry(geom.local_vertices)
    D, vdm = divergence_matrix(mesh)
    C, sdm, _ = curl_matrix(mesh)

    sv_div = np.linalg.svd(D.toarray(), compute_uv=False)
    rank_div, gap = _rank(sv_div, CUTOFF)
    nullity = vdm.ndof - rank_div
    rank_curl, sigma_curl = _curl_rank(C)

    DC = D @ C
    # With rank(D) or rank(C) zero, D C is zero and every cut counts nothing.
    cut = CUTOFF * sv_div[rank_div - 1] * sigma_curl if rank_div and rank_curl else 0.0
    # sigma_1 <= Frobenius norm, so below the cut no singular value counts.
    rank_combined = nullity
    if np.linalg.norm(DC.data) > cut:
        rank_combined += int((np.linalg.svd(DC.toarray(), compute_uv=False) > cut).sum())

    div_curl_max = float(np.abs(DC.data).max(initial=0.0))

    # Global consistency: push a random scalar coefficient vector through the
    # matrix and compare against per-cell DoFs of the local rotated gradient.
    rng = np.random.default_rng(0)
    w = rng.standard_normal(sdm.ndof)
    c = sdm.gather(w) * scalar_dof_scaling(geom.h)
    sigma_global = vdm.gather(C @ w)

    res = {}
    for part in _slices(0, mesh.n_cells):
        shapes = unit[part]
        sc, vc = _build_pair(shapes)  # one stream span and one pair of frames
        cells, h = geom[part], geom.h[part, None]
        field_x = np.einsum("nj,njm->nm", c[part], sc.coeff_matrix @ DY.T) / h
        field_y = np.einsum("nj,njm->nm", c[part], -(sc.coeff_matrix @ DX.T)) / h

        def rotated_gradient(x, y):
            V = vandermonde(cells.to_local(np.stack([x, y], axis=-1)))
            return np.stack([np.einsum("nmk,nk->nm", V, f) for f in (field_x, field_y)], axis=-1)

        sigma = vector_dof_values(cells, rotated_gradient)
        # Per cell: each rotated scalar basis gradient re-interpolates to
        # itself, each vector basis field's divergence integrates to its
        # flux, and the DoFs of the rotated gradient match the curl matrix.
        _fold_max(res, {
            "reinterp": _curl_inclusion_residual(shapes, sc, vc)[0],
            "div_flux": _div_flux_residual(shapes, vc.divergence()[0]),
            "consistency": np.abs(sigma - sigma_global[part]),
        })
    reinterp, div_flux, consistency = (float(v) for v in res.values())

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
        "div_curl_zero": div_curl_max <= TOL,
        "curl_reinterpolation": reinterp <= TOL,
        "divergence_is_flux": div_flux <= TOL,
        "curl_global_consistency": consistency <= 1e-8,
        "alternating_sum_zero": sdm.ndof - vdm.ndof + (mesh.n_cells - 1) == 0,
    }
    return SequenceReport(
        dims=dims, rank_div=rank_div, nullity_div=nullity, rank_curl=rank_curl,
        rank_combined=rank_combined, sv_gap=gap, div_curl_max=div_curl_max,
        curl_reinterp_residual=reinterp, div_flux_residual=div_flux,
        curl_global_consistency=consistency, cutoff=CUTOFF, checks=checks,
    )


def inf_sup_constant(mesh: Mesh) -> float:
    """Smallest nonzero generalized singular value of the divergence form.

    beta = min over mean-zero cell pressures q of
    max over v of b(v, q) / (||v||_1h ||q||_0), from the velocity H1 Gram
    matrix X and the cell-area pressure mass M_p = diag(a): beta^2 is the
    smallest nonzero generalized eigenvalue of S = B X^-1 B^T against M_p
    (Chapelle & Bathe, Comput. Struct. 47, 1993). X and the divergence B
    are the blocks [[X, -B^T, 0], [-B, 0, -c], ...] of the Brinkman matrix
    with nu = alpha = 1 (``assemble_brinkman``), and no dense matrix is
    formed: 1 / beta^2 is the largest eigenvalue (``eigsh``, from a fixed
    start vector, so repeated calls are bit-identical) of
    w -> P (sqrt(a) * S^+ (sqrt(a) * P w)), where P projects out sqrt(a),
    and one stream-function sweep of the Brinkman solve
    (``assembly._StreamSolver``) applies S^+ to a pressure of mean zero.

    A one-cell mesh has no mean-zero pressure and raises ``ValueError``, and
    so does a mesh whose Euler characteristic is not 1, which the sweep
    cannot solve on.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    if mesh.n_cells < 2:
        raise ValueError("the mean-zero pressure space of a one-cell mesh is empty, "
                         "so it has no inf-sup constant")
    system = assemble_brinkman(mesh, 1.0, 1.0, lambda x, y: np.zeros(np.shape(x) + (2,)))
    solver = _StreamSolver(system)
    root = np.sqrt(solver.c)
    unit = root / np.linalg.norm(root)
    r = np.zeros(system.ndof)

    def project(w):
        return w - (unit @ w) * unit

    def apply(w):
        r[solver.pressure] = -root * project(w)
        return project(root * solver.sweep(r)[solver.pressure])

    n_p = system.n_pressure
    op = LinearOperator((n_p, n_p), matvec=apply, dtype=float)
    v0 = project(np.random.default_rng(0).standard_normal(n_p))
    lam = eigsh(op, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]
    return float(1.0 / np.sqrt(lam))
